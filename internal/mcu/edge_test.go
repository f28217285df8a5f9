package mcu

import (
	"math"
	"math/rand"
	"testing"

	"micronets/internal/graph"
)

// emptyModel is a structurally valid tensor set with no ops — the shape a
// caller gets from a malformed or still-being-built graph. graph.Validate
// rejects it, but the cost model must stay total (no NaNs) regardless.
func emptyModel() *graph.Model {
	return &graph.Model{
		Name: "empty",
		Tensors: []*graph.Tensor{
			{ID: 0, Name: "in", H: 4, W: 4, C: 1, Scale: 0.05, ZeroPoint: -128, Bits: 8},
		},
		Input: 0, Output: 0,
	}
}

// oneOpModel is the smallest invokable model: a single 1x1 conv.
func oneOpModel() *graph.Model {
	m := &graph.Model{
		Name: "one-op",
		Tensors: []*graph.Tensor{
			{ID: 0, Name: "in", H: 4, W: 4, C: 4, Scale: 0.05, ZeroPoint: -128, Bits: 8},
			{ID: 1, Name: "out", H: 4, W: 4, C: 4, Scale: 0.1, ZeroPoint: -128, Bits: 8},
		},
		Input: 0, Output: 1,
	}
	m.Ops = []*graph.Op{{
		Kind: graph.OpConv2D, Name: "pw", Inputs: []int{0}, Output: 1,
		KH: 1, KW: 1, SH: 1, SW: 1,
		Weights: make([]int8, 16), WeightBits: 8,
		WeightScales: make([]float32, 4), Bias: make([]int32, 4),
		ClampMin: -128, ClampMax: 127,
	}}
	for i := range m.Ops[0].WeightScales {
		m.Ops[0].WeightScales[i] = 0.02
	}
	return m
}

// TestZeroAndOneOpModels pins the degenerate-model contract across the
// whole cost model: a zero-op model costs nothing and traces nothing, a
// one-op model costs a positive finite amount, and nothing NaN-propagates.
func TestZeroAndOneOpModels(t *testing.T) {
	cases := []struct {
		name        string
		model       *graph.Model
		wantLatZero bool
		wantLayers  int
	}{
		{name: "zero-op", model: emptyModel(), wantLatZero: true, wantLayers: 0},
		{name: "one-op", model: oneOpModel(), wantLatZero: false, wantLayers: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, dev := range Devices() {
				lat, layers, err := ModelLatency(c.model, dev)
				if err != nil {
					t.Fatalf("%s: %v", dev.Name, err)
				}
				if math.IsNaN(lat) || math.IsInf(lat, 0) {
					t.Fatalf("%s: latency %v not finite", dev.Name, lat)
				}
				if c.wantLatZero && lat != 0 {
					t.Fatalf("%s: zero-op latency %v, want 0", dev.Name, lat)
				}
				if !c.wantLatZero && lat <= 0 {
					t.Fatalf("%s: latency %v, want > 0", dev.Name, lat)
				}
				if len(layers) != c.wantLayers {
					t.Fatalf("%s: %d layers, want %d", dev.Name, len(layers), c.wantLayers)
				}

				rng := rand.New(rand.NewSource(1))
				d := deploy(t, c.model, dev)
				if e := d.EnergyMJ; math.IsNaN(e) || (c.wantLatZero && e != 0) || (!c.wantLatZero && e <= 0) {
					t.Fatalf("%s: energy %v inconsistent with latency", dev.Name, e)
				}

				trace := CurrentTrace(d, 1.0, 0.001, 0.5, rng)
				if c.wantLatZero {
					if len(trace) != 0 {
						t.Fatalf("%s: zero-op trace has %d samples, want empty", dev.Name, len(trace))
					}
				} else {
					if len(trace) != 500 {
						t.Fatalf("%s: trace has %d samples, want 500", dev.Name, len(trace))
					}
					for _, p := range trace {
						if math.IsNaN(p.CurrentMA) {
							t.Fatalf("%s: NaN sample at t=%v", dev.Name, p.TimeS)
						}
					}
				}
			}
		})
	}
}

// TestDegenerateTraceParams pins the guard rails on the trace sampler
// itself: a zero or negative sample interval (or period) must yield an
// empty trace, never a NaN division or an infinite loop, and so must a
// negative duration, never a negative slice capacity.
func TestDegenerateTraceParams(t *testing.T) {
	d := deploy(t, oneOpModel(), F446RE)
	rng := rand.New(rand.NewSource(2))
	for _, c := range []struct {
		name                 string
		period, dt, duration float64
	}{
		{name: "zero-dt", period: 1, dt: 0, duration: 1},
		{name: "negative-dt", period: 1, dt: -0.01, duration: 1},
		{name: "zero-period", period: 0, dt: 0.001, duration: 1},
		{name: "zero-duration", period: 1, dt: 0.001, duration: 0},
		{name: "negative-duration", period: 1, dt: 0.001, duration: -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := CurrentTrace(d, c.period, c.dt, c.duration, rng); len(got) != 0 {
				t.Fatalf("trace has %d samples, want empty", len(got))
			}
		})
	}
}

// TestModelLatencyErrorPaths pins the latency model's failure contract:
// an unscoreable device or an op kind the cost model does not cover must
// surface as an error, never as a silent 0-second (or infinite) latency.
// A zero latency would Pareto-dominate every real candidate in a
// latency-ranked search, which is exactly the bug this guards against.
func TestModelLatencyErrorPaths(t *testing.T) {
	m := oneOpModel()

	t.Run("nil-device", func(t *testing.T) {
		if _, _, err := ModelLatency(m, nil); err == nil {
			t.Fatal("nil device must error")
		}
	})
	t.Run("uncalibrated-device", func(t *testing.T) {
		broken := &Device{Name: "broken-board", ClockMHz: 0, CycleFactor: 1}
		lat, _, err := ModelLatency(m, broken)
		if err == nil {
			t.Fatalf("zero-clock device must error, got latency %v", lat)
		}
		broken = &Device{Name: "broken-board", ClockMHz: 180, CycleFactor: 0}
		if _, _, err := ModelLatency(m, broken); err == nil {
			t.Fatal("zero-cycle-factor device must error")
		}
	})
	t.Run("unmodeled-op-kind", func(t *testing.T) {
		weird := oneOpModel()
		weird.Ops[0].Kind = graph.OpKind(99)
		lat, layers, err := ModelLatency(weird, F446RE)
		if err == nil {
			t.Fatalf("unmodeled op kind must error, got latency %v (%d layers)", lat, len(layers))
		}
		if _, err := OpCycles(weird, weird.Ops[0]); err == nil {
			t.Fatal("OpCycles must reject an unmodeled op kind")
		}
	})
	t.Run("deploy-errors", func(t *testing.T) {
		// Deploy returns the latency model's error and no Deployment, so
		// an unscoreable model has no latency, energy or trace to misread.
		weird := oneOpModel()
		weird.Ops[0].Kind = graph.OpKind(99)
		if d, err := Deploy(weird, F446RE); err == nil {
			t.Fatalf("unmodeled op kind must fail Deploy, got latency %v", d.LatencySeconds)
		}
		broken := &Device{Name: "broken-board", ClockMHz: 0, CycleFactor: 1}
		if d, err := Deploy(m, broken); err == nil {
			t.Fatalf("zero-clock device must fail Deploy, got latency %v", d.LatencySeconds)
		}
	})
}
