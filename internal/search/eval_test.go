package search

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"micronets/internal/arch"
	"micronets/internal/core"
	"micronets/internal/mcu"
	"micronets/internal/zoo"
)

// evaluateDigestFile holds the sha256 of evaluateDigest. It was generated
// while Evaluate still ran tflm.Report and the latency model itself (and
// the latency model a second time for energy); do not regenerate it to
// make a refactor pass.
const evaluateDigestFile = "testdata/evaluate_digest.sha256"

// evaluateDigest hashes %+v of Evaluate's Metrics (or its error) on
// F446RE, F746ZG and F767ZI for 200 seeded Random and 200 Mutate
// candidates of the KWS and the AD space, then for the zoo's six DS-CNN
// MicroNets.
func evaluateDigest(t *testing.T) string {
	t.Helper()
	var specs []*arch.Spec
	for _, task := range []string{"kws", "ad"} {
		space, err := core.SpaceForTask(task)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(37))
		var random []*arch.Spec
		for i := range 200 {
			random = append(random, space.Random(fmt.Sprintf("r%d", i), rng))
		}
		specs = append(specs, random...)
		var p *arch.Spec
		for i := range 200 {
			if i%20 == 0 {
				p = random[i/20]
			}
			p = space.Mutate(fmt.Sprintf("m%d", i), p, rng)
			specs = append(specs, p)
		}
	}
	specs = append(specs, zoo.MicroNetKWSL(), zoo.MicroNetKWSM(), zoo.MicroNetKWSS(),
		zoo.MicroNetADL(), zoo.MicroNetADM(), zoo.MicroNetADS())
	h := sha256.New()
	for _, dev := range []*mcu.Device{mcu.F446RE, mcu.F746ZG, mcu.F767ZI} {
		for _, spec := range specs {
			m, err := Evaluate(spec, dev)
			fmt.Fprintf(h, "%s %s %s %+v %v\n", dev.Name, spec.Name, spec.Fingerprint(), m, err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestEvaluateDigest pins every number a trial scores, at one and at two
// cores, so a change of how a trial is measured cannot move one metric of
// one candidate. The latency model's multiply-adds may fuse on FMA
// targets: the pinned digest is amd64's.
func TestEvaluateDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("float multiply-adds may fuse on %s; the digest is amd64's", runtime.GOARCH)
	}
	raw, err := os.ReadFile(filepath.FromSlash(evaluateDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if got := evaluateDigest(t); got != want {
				t.Errorf("Evaluate digest %s, want %s (%s)", got, want, evaluateDigestFile)
			}
		})
	}
}

// BenchmarkEvaluate times one trial's evaluation (lowering, planning and
// the F746ZG cost models) over 256 seeded random KWS candidates, cycled,
// so ns/op is the per-trial cost of the nas_sweep path without its
// harness. Allocations are reported.
func BenchmarkEvaluate(b *testing.B) {
	space, err := core.SpaceForTask("kws")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	specs := make([]*arch.Spec, 256)
	for i := range specs {
		specs[i] = space.Random("bench", rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, err := Evaluate(specs[i%len(specs)], mcu.F746ZG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainFinalist times one stage-two finalist training (build,
// 60 recipe steps, held-out accuracy) of a KWS spec whose widths,
// 24/40/72, are not multiples of 64, so the float matmuls run their
// narrow-strip paths.
func BenchmarkTrainFinalist(b *testing.B) {
	space, err := core.SpaceForTask("kws")
	if err != nil {
		b.Fatal(err)
	}
	spec := space.Build("bench", []int{24, 40, 72})
	tr, err := NewTrainer("kws", 1)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, _, err := tr.Train(spec, 60, 1, false); err != nil {
			b.Fatal(err)
		}
	}
}
