package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	ag "micronets/internal/autograd"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

// testLoop is a searchLoop over a supernet built from cfg at seed 1, fed
// four fixed random batches of n inputs, with architecture updates from
// the first step.
func testLoop(t testing.TB, cfg SupernetConfig, n, steps int) *searchLoop {
	rng := rand.New(rand.NewSource(1))
	s, err := NewSupernet(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := cfg.Space
	batches := make([]Batch, 4)
	for i := range batches {
		batches[i] = Batch{X: tensor.Randn(rng, 1, n, sp.InputH, sp.InputW, sp.InputC), Labels: make([]int, n)}
		for j := range batches[i].Labels {
			batches[i].Labels[j] = rng.Intn(sp.NumClasses)
		}
	}
	batch := func(step int) Batch { return batches[step%len(batches)] }
	cons := Constraints{MaxWeightBytes: 300e3, MaxArenaBytes: 150e3, MaxOps: 40e6}
	return newSearchLoop(s, batch, batch, cons, SearchConfig{
		Steps:    steps,
		WeightLR: nn.CosineSchedule{Start: 0.05, End: 0.002, Steps: steps},
		Seed:     1,
	})
}

// nasSweepLoop is the searchLoop of the nas_sweep DNAS warm start: the
// KWS supernet (49×10 MFCCs, 12 classes, 64 channels, 4 blocks) on
// batches of 8. The batches are random; the step's work does not depend
// on their values.
func nasSweepLoop(t testing.TB, steps int) *searchLoop {
	sp := spaces["kws"]
	return testLoop(t, sp.Supernet(64, 4), 8, steps)
}

// smallLoop is a searchLoop on a narrower, shallower KWS supernet with
// the same ops, for tests that run it several times.
func smallLoop(t testing.TB, steps int) *searchLoop {
	sp := spaces["kws"]
	return testLoop(t, sp.Supernet(16, 3), 4, steps)
}

// sameParams fails t unless the two loops' supernets hold the same
// weights and architecture logits, bit for bit.
func sameParams(t *testing.T, what string, a, b *searchLoop) {
	t.Helper()
	pa := append(a.s.WeightParams(), a.s.ArchParams()...)
	pb := append(b.s.WeightParams(), b.s.ArchParams()...)
	for i := range pa {
		for j, v := range pa[i].V.Value.Data {
			if w := pb[i].V.Value.Data[j]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: %s[%d] = %v vs %v", what, pa[i].Name, j, v, w)
			}
		}
	}
}

// TestRecycledTapeMatchesFresh: after every step, a loop that recycles
// one tape holds the same parameters, bit for bit, as one that starts
// each step on a fresh tape.
func TestRecycledTapeMatchesFresh(t *testing.T) {
	const steps = 4
	recycled, fresh := smallLoop(t, steps), smallLoop(t, steps)
	for step := range steps {
		recycled.step(step)
		fresh.tape = ag.NewTape()
		fresh.step(step)
		sameParams(t, fmt.Sprintf("step %d", step), recycled, fresh)
	}
}

// TestTapesTrainConcurrently: two search loops, each with its own tape,
// step on two goroutines at once (run it under -race) and end where one
// loop alone does.
func TestTapesTrainConcurrently(t *testing.T) {
	const steps = 3
	run := func(l *searchLoop) {
		for step := range steps {
			l.step(step)
		}
	}
	want := smallLoop(t, steps)
	run(want)
	a, b := smallLoop(t, steps), smallLoop(t, steps)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); run(a) }()
	go func() { defer wg.Done(); run(b) }()
	wg.Wait()
	sameParams(t, "first goroutine", a, want)
	sameParams(t, "second goroutine", b, want)
}

// BenchmarkDNASStep times one steady-state DNAS step (a weight update and
// an architecture update) on the nas_sweep supernet. Run it with
// -benchmem: after the warm-up steps the tape lends every tensor from its
// free list, so bytes/op is the step's small change (graph nodes,
// closures, views), not its activations.
func BenchmarkDNASStep(b *testing.B) {
	const warm = 2
	l := nasSweepLoop(b, warm+b.N)
	for step := range warm {
		l.step(step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		l.step(warm + i)
	}
}

// untapedDNASStepBytes is what one steady-state step allocated when
// every op tensor came fresh from the heap, before the tape: 88.9 MB,
// measured as the difference of 12- and 2-step RunSearch calls on
// nasSweepLoop's network.
const untapedDNASStepBytes = 88.9e6

// tapedDNASStepBytes bounds a steady-state step on the tape at about five
// times the ~0.19 MB (graph nodes, closures, views) it allocates. A
// tensor that left the tape would be allocated once per forward pass,
// twice a step: the first convolution's im2col (0.63 MB) or output
// (1 MB) alone would exceed it.
const tapedDNASStepBytes = 1e6

// TestDNASStepAllocBound: a steady-state DNAS step allocates at most a
// tenth of what it did before the tape, and at most tapedDNASStepBytes.
func TestDNASStepAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	const warm, measured = 2, 5
	l := nasSweepLoop(t, warm+measured)
	for step := range warm {
		l.step(step)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range measured {
		l.step(warm + i)
	}
	runtime.ReadMemStats(&m1)
	perStep := float64(m1.TotalAlloc-m0.TotalAlloc) / measured
	t.Logf("%.0f bytes/step (%.0f before the tape)", perStep, untapedDNASStepBytes)
	if perStep > untapedDNASStepBytes/10 {
		t.Fatalf("a DNAS step allocates %.0f bytes, above a tenth of the %.0f it took before the tape", perStep, untapedDNASStepBytes)
	}
	if perStep > tapedDNASStepBytes {
		t.Fatalf("a DNAS step allocates %.0f bytes, above %.0f: an op's tensors are leaving the tape", perStep, tapedDNASStepBytes)
	}
}
