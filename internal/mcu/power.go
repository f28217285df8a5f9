package mcu

import (
	"hash/fnv"
	"math"
	"math/rand"

	"micronets/internal/graph"
)

// The paper's §3.4 finding: "there is little variance in power consumption
// between models (σ/µ = 0.00731), i.e. power is essentially independent of
// model size or architecture." We model active power as the device constant
// with a deterministic per-model perturbation of exactly that magnitude.
const powerSigmaOverMu = 0.00731

// ActivePowerMW returns the board's active power draw while running the
// given model, with the (tiny) model-dependent variation observed in
// Figure 5.
func ActivePowerMW(m *graph.Model, dev *Device) float64 {
	h := fnv.New64a()
	h.Write([]byte(dev.Name))
	h.Write([]byte(m.Name))
	var b [8]byte
	n := m.TotalMACs()
	for i := range b {
		b[i] = byte(n >> (8 * i))
	}
	h.Write(b[:])
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return dev.ActiveMW * (1 + rng.NormFloat64()*powerSigmaOverMu)
}

// TracePoint is one sample of a simulated Otii current trace.
type TracePoint struct {
	TimeS     float64
	CurrentMA float64
}

// CurrentTrace synthesizes an Otii Arc-style current-vs-time trace for an
// application invoking d's model once per periodS, sampled every dtS, for
// the given duration. Active phases draw d's active power with
// measurement noise; sleep phases drop to the device's deep-sleep floor
// (Figure 9). A zero-op model (nothing to invoke), a non-positive sample
// interval or period, or a negative duration yields an empty trace.
func CurrentTrace(d *Deployment, periodS, dtS, durationS float64, rng *rand.Rand) []TracePoint {
	if d.LatencySeconds == 0 || dtS <= 0 || periodS <= 0 || durationS < 0 {
		return nil
	}
	activeMA := d.ActivePowerMW / d.Device.SupplyVoltage
	sleepMA := d.Device.SleepMW / d.Device.SupplyVoltage
	n := int(durationS / dtS)
	out := make([]TracePoint, 0, n)
	for i := 0; i < n; i++ {
		t := float64(i) * dtS
		phase := math.Mod(t, periodS)
		ma := sleepMA
		if phase < d.LatencySeconds {
			ma = activeMA * (1 + rng.NormFloat64()*0.01)
		}
		out = append(out, TracePoint{TimeS: t, CurrentMA: ma})
	}
	return out
}

// AverageCurrentMA integrates a trace to its mean current.
func AverageCurrentMA(trace []TracePoint) float64 {
	if len(trace) == 0 {
		return 0
	}
	var s float64
	for _, p := range trace {
		s += p.CurrentMA
	}
	return s / float64(len(trace))
}
