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
