package autograd_test

import (
	"math"
	"math/rand"
	"testing"

	"micronets/internal/core"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

// dnasRun runs three steps of core.RunSearch, whose step loop recycles one
// tape, on a small KWS supernet (every op the nas_sweep warm start uses),
// and returns every weight and architecture logit after it.
func dnasRun(t *testing.T) []float32 {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	sp, err := core.SpaceForTask("kws")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSupernet(rng, sp.Supernet(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	batch := func(int) core.Batch {
		labels := make([]int, 4)
		for i := range labels {
			labels[i] = rng.Intn(12)
		}
		return core.Batch{X: tensor.Randn(rng, 1, 4, 49, 10, 1), Labels: labels}
	}
	res, err := core.RunSearch(s, batch, batch,
		core.Constraints{MaxWeightBytes: 2e3, MaxArenaBytes: 4e3, MaxOps: 1e6},
		core.SearchConfig{Steps: 3, WeightLR: nn.CosineSchedule{Start: 0.05, End: 0.01, Steps: 3}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := []float32{res.FinalLoss, res.FinalPenalty}
	for _, p := range append(s.WeightParams(), s.ArchParams()...) {
		out = append(out, p.V.Value.Data...)
	}
	return out
}

// TestDNASStepsOnPoisonedTape: three DNAS steps, whose recycled tensors
// arrive NaN-filled in this test binary, end with every parameter, the
// loss and the penalty finite: no op of the warm start reads a tape
// tensor before writing it. (internal/core's TestRecycledTapeMatchesFresh
// checks the same steps bit for bit against fresh tensors.)
func TestDNASStepsOnPoisonedTape(t *testing.T) {
	for i, v := range dnasRun(t) {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("value %d is %v after three steps on a poisoned tape", i, v)
		}
	}
}
