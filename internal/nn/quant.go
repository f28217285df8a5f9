package nn

import (
	ag "micronets/internal/autograd"
	"micronets/internal/tensor"
)

// LayerQuant configures quantization-aware training for one layer. Weights
// are fake-quantized per-tensor from their current min/max each step;
// activations use an EMA-observed range, as in TensorFlow's QAT (the
// scheme the paper uses for its 8-bit models, §5.2).
//
// A nil *LayerQuant disables QAT, so layers can hold it by pointer without
// nil checks at every call site.
type LayerQuant struct {
	WeightBits int
	ActBits    int

	// EMA-observed activation range.
	actLo, actHi float32
	seen         bool
	// Momentum of the range EMA.
	Momentum float32
}

// NewLayerQuant returns a QAT config with the given bit widths.
func NewLayerQuant(weightBits, actBits int) *LayerQuant {
	return &LayerQuant{WeightBits: weightBits, ActBits: actBits, Momentum: 0.95}
}

// maybeQuantWeights fake-quantizes weights symmetrically around zero.
func (q *LayerQuant) maybeQuantWeights(w *ag.Var) *ag.Var {
	if q == nil || q.WeightBits == 0 {
		return w
	}
	// Symmetric range, zero-point 0: what CMSIS-NN expects for weights.
	lo, hi := tensor.Min(w.Value), tensor.Max(w.Value)
	a := absf(lo)
	if absf(hi) > a {
		a = absf(hi)
	}
	if a == 0 {
		a = 1e-6
	}
	return ag.FakeQuant(w, -a, a, q.WeightBits)
}

// maybeQuantActs fake-quantizes an activation tensor, updating the EMA
// range during training.
func (q *LayerQuant) maybeQuantActs(y *ag.Var, training bool) *ag.Var {
	if q == nil || q.ActBits == 0 {
		return y
	}
	if training {
		lo, hi := tensor.Min(y.Value), tensor.Max(y.Value)
		if !q.seen {
			q.actLo, q.actHi = lo, hi
			q.seen = true
		} else {
			q.actLo = q.Momentum*q.actLo + (1-q.Momentum)*lo
			q.actHi = q.Momentum*q.actHi + (1-q.Momentum)*hi
		}
	}
	if !q.seen {
		return y
	}
	lo, hi := q.actLo, q.actHi
	if lo > 0 {
		lo = 0 // keep zero representable
	}
	if hi < 0 {
		hi = 0
	}
	return ag.FakeQuant(y, lo, hi, q.ActBits)
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
