package search

import (
	"math/rand"
	"testing"

	"micronets/internal/arch"
	"micronets/internal/core"
	"micronets/internal/mcu"
)

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
// 60 quick-recipe steps, held-out accuracy) of a KWS spec whose widths,
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
