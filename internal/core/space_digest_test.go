package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"micronets/internal/arch"
)

// spaceStreamsFile holds one line per search space, "<task> <sha256>",
// of spaceStreamDigest at seed 36. It was generated while strides were
// still a closure over block position; a change of how a space is
// represented must reproduce it, so do not regenerate it to make a
// refactor pass.
const spaceStreamsFile = "testdata/space_streams.sha256"

// spaceStreamDigest hashes what a space generates: the Fingerprint (and
// Task and Source) of 400 Random specs, of a 600-step Mutate chain
// restarted from every 30th step at the next Random spec, and of Build
// of fixed width vectors before and after a Widths round trip, among
// them vectors deeper than MaxBlocks and shallower than MinBlocks (which
// Widths clamps and pads) and widths off the multiple-of-4 grid and
// outside [MinC, MaxC]. The KWS line also covers RandomKWSModel.
func spaceStreamDigest(t *testing.T, task string) string {
	t.Helper()
	sp := spaceFor(t, task)
	h := sha256.New()
	put := func(spec *arch.Spec) {
		fmt.Fprintf(h, "%s|%s|%s\n", spec.Task, spec.Source, spec.Fingerprint())
	}
	rng := rand.New(rand.NewSource(36))
	var random []*arch.Spec
	for i := range 400 {
		spec := sp.Random(fmt.Sprintf("r%d", i), rng)
		random = append(random, spec)
		put(spec)
	}
	var p *arch.Spec
	for i := range 600 {
		if i%30 == 0 {
			p = random[i/30]
		}
		p = sp.Mutate(fmt.Sprintf("m%d", i), p, rng)
		put(p)
	}
	for i, widths := range [][]int{
		{sp.MinC},
		{16, 32},
		{3, 17, 250, 1000, 0, -4},
		{24, 48, 48, 64, 64, 96, 96, 128, 128, 160, 160, 192},
		{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8},
		{256, 128, 64, 32},
	} {
		spec := sp.Build(fmt.Sprintf("b%d", i), widths)
		put(spec)
		put(sp.Build(fmt.Sprintf("w%d", i), sp.Widths(spec)))
	}
	fmt.Fprintln(h, sp.Widths(&arch.Spec{}))
	if task == "kws" {
		for i := range 200 {
			put(RandomKWSModel(rng, i))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSpaceStreamDigest pins the Random, Mutate and Build streams of
// both search spaces, so a change of how a space is stored cannot move
// one candidate the search or the DNAS warm start generates. randWidth's
// math.Pow is pure Go, but its multiply-adds may fuse on FMA targets:
// the pinned digests are amd64's.
func TestSpaceStreamDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("float multiply-adds may fuse on %s; the digests are amd64's", runtime.GOARCH)
	}
	raw, err := os.ReadFile(filepath.FromSlash(spaceStreamsFile))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		task, digest, _ := strings.Cut(line, " ")
		want[task] = digest
	}
	for _, task := range []string{"kws", "ad"} {
		if got := spaceStreamDigest(t, task); got != want[task] {
			t.Errorf("%s space streams digest %s, want %s (%s)", task, got, want[task], spaceStreamsFile)
		}
	}
}

// TestSpaceJSONRoundTrip: a space is a plain value. Its JSON encoding
// decodes to an equal space with the same Digest, and the two spaces'
// digests differ.
func TestSpaceJSONRoundTrip(t *testing.T) {
	digests := map[string]string{}
	for _, task := range []string{"kws", "ad"} {
		sp := spaceFor(t, task)
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		var back Space
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != *sp {
			t.Fatalf("%s space %s decodes to %+v", task, b, back)
		}
		if d := back.Digest(); d != sp.Digest() || len(d) != 16 {
			t.Fatalf("%s digest %q after a round trip, %q before", task, d, sp.Digest())
		}
		digests[sp.Digest()] = task
	}
	if len(digests) != 2 {
		t.Fatalf("kws and ad share a digest: %v", digests)
	}
}
