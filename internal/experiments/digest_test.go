package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// renderDigestFile holds one "<sha256 of the rendered text> <case>" line
// per renderer the digest test pins, in the format sha256sum prints.
var renderDigestFile = filepath.Join("testdata", "render_digests.txt")

// TestRenderDigests pins the exact text of every experiment at seed 42,
// the seed cmd/bench uses: a change to the deployment measurement or the
// latency model that moves one printed digit of one table fails here.
func TestRenderDigests(t *testing.T) {
	f, err := os.Open(renderDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", renderDigestFile, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Errorf("%d experiments, %s pins %d", len(exps), renderDigestFile, len(want))
	}
	for _, e := range exps {
		out, err := e.Render(42)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != want[e.ID] {
			t.Errorf("%s: sha256 %s, %s pins %q", e.ID, got, renderDigestFile, want[e.ID])
		}
	}
}
