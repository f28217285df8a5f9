package nn

import (
	ag "micronets/internal/autograd"
	"micronets/internal/tensor"
)

// qatBits is the width QAT fake-quantizes weights and activations to, and
// qatMomentum the momentum of the activation-range EMA.
const (
	qatBits             = 8
	qatMomentum float32 = 0.95
)

// LayerQuant is one layer's 8-bit quantization-aware training state.
// Weights are fake-quantized per-tensor from their current min/max each
// step; activations use an EMA-observed range, as in TensorFlow's QAT (the
// scheme the paper uses for its 8-bit models, §5.2). The zero value is
// ready to use.
//
// A nil *LayerQuant disables QAT, so layers can hold it by pointer without
// nil checks at every call site.
type LayerQuant struct {
	// EMA-observed activation range.
	actLo, actHi float32
	seen         bool
}

// maybeQuantWeights fake-quantizes weights symmetrically around zero.
func (q *LayerQuant) maybeQuantWeights(w *ag.Var) *ag.Var {
	if q == nil {
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
	return ag.FakeQuant(w, -a, a, qatBits)
}

// maybeQuantActs fake-quantizes an activation tensor, updating the EMA
// range during training.
func (q *LayerQuant) maybeQuantActs(y *ag.Var, training bool) *ag.Var {
	if q == nil {
		return y
	}
	if training {
		lo, hi := tensor.Min(y.Value), tensor.Max(y.Value)
		if !q.seen {
			q.actLo, q.actHi = lo, hi
			q.seen = true
		} else {
			q.actLo = qatMomentum*q.actLo + (1-qatMomentum)*lo
			q.actHi = qatMomentum*q.actHi + (1-qatMomentum)*hi
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
	return ag.FakeQuant(y, lo, hi, qatBits)
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
