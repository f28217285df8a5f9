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

// renderCases lists every paper table and figure renderer at seed 42, the
// seed cmd/bench uses.
func renderCases() []struct {
	name   string
	render func() (string, error)
} {
	const seed = 42
	return []struct {
		name   string
		render func() (string, error)
	}{
		{"table1", func() (string, error) { return Table1(), nil }},
		{"table2", func() (string, error) { return Table2(seed) }},
		{"table3", func() (string, error) { return Table3(seed) }},
		{"table4", func() (string, error) { return Table4(seed) }},
		{"table5", func() (string, error) { return Table5(), nil }},
		{"fig2", func() (string, error) { return Figure2("MicroNet-KWS-L", seed) }},
		{"fig9", func() (string, error) { return Figure9(seed) }},
		{"fig11", func() (string, error) { return Figure11(seed) }},
		{"pareto/kws", func() (string, error) { return RenderPareto("kws", seed) }},
		{"pareto/vww", func() (string, error) { return RenderPareto("vww", seed) }},
		{"pareto/ad", func() (string, error) { return RenderPareto("ad", seed) }},
	}
}

// TestRenderDigests pins the exact text of every renderer in renderCases:
// a change to the deployment measurement that moves one printed digit of
// one table fails here.
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
	cases := renderCases()
	if len(cases) != len(want) {
		t.Errorf("%d render cases, %s pins %d", len(cases), renderDigestFile, len(want))
	}
	for _, c := range cases {
		out, err := c.render()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != want[c.name] {
			t.Errorf("%s: sha256 %s, %s pins %q", c.name, got, renderDigestFile, want[c.name])
		}
	}
}
