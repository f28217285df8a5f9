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

// EnergyPerInferenceMJ returns the energy of one inference in millijoules:
// since power is constant, energy is power times latency (§3.4).
func EnergyPerInferenceMJ(m *graph.Model, dev *Device) float64 {
	return ActivePowerMW(m, dev) * Latency(m, dev) // mW * s = mJ
}

// TracePoint is one sample of a simulated Otii current trace.
type TracePoint struct {
	TimeS     float64
	CurrentMA float64
}

// CurrentTrace synthesizes an Otii Arc-style current-vs-time trace for an
// application invoking the model once per periodS, sampled every dtS, for
// the given duration. Active phases carry measurement noise; sleep phases
// drop to the deep-sleep floor (Figure 9). A zero-op model (nothing to
// invoke) or a non-positive sample interval yields an empty trace — the
// old behaviour divided by dtS and took math.Mod against periodS, which
// NaN-propagated into every sample.
func CurrentTrace(m *graph.Model, dev *Device, periodS, dtS, durationS float64, rng *rand.Rand) []TracePoint {
	lat := Latency(m, dev)
	// NaN is Latency's unscoreable-model sentinel: without this guard,
	// `phase < NaN` is always false and the trace would silently read as
	// a believable all-sleep measurement.
	if lat == 0 || math.IsNaN(lat) || dtS <= 0 || periodS <= 0 {
		return nil
	}
	activeMA := ActivePowerMW(m, dev) / dev.SupplyVoltage
	sleepMA := dev.SleepMW / dev.SupplyVoltage
	n := int(durationS / dtS)
	out := make([]TracePoint, 0, n)
	for i := 0; i < n; i++ {
		t := float64(i) * dtS
		phase := math.Mod(t, periodS)
		ma := sleepMA
		if phase < lat {
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
