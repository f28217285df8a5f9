package autograd

import "math"

// FakeQuant simulates affine quantization of x into 2^bits levels over
// [lo, hi] during the forward pass, with a straight-through estimator
// backward that passes gradients only where x fell inside the range. This
// is the quantization-aware-training mechanism used by the paper (8-bit for
// all models, 4-bit for the sub-byte study).
func FakeQuant(x *Var, lo, hi float32, bits int) *Var {
	if hi <= lo {
		hi = lo + 1e-6
	}
	levels := float32(int(1)<<uint(bits)) - 1
	// Nudge the range so zero is exactly representable, as in TFLite.
	scale := (hi - lo) / levels
	zero := float32(math.Round(float64(-lo / scale)))
	if zero < 0 {
		zero = 0
	}
	if zero > levels {
		zero = levels
	}
	qlo := -zero * scale
	qhi := (levels - zero) * scale

	tp := tapeOf(x)
	out := tp.alloc(x.Value.Shape...)
	y := out.Data[:len(x.Value.Data)]
	for i, v := range x.Value.Data {
		if v < qlo {
			v = qlo
		}
		if v > qhi {
			v = qhi
		}
		q := float32(math.Round(float64((v - qlo) / scale)))
		y[i] = qlo + q*scale
	}
	var vr *Var
	vr = newOp(tp, out, func() {
		g := tp.alloc(x.Value.Shape...)
		for i, v := range x.Value.Data {
			if v >= qlo && v <= qhi {
				g.Data[i] = vr.Grad.Data[i]
			} else {
				g.Data[i] = 0
			}
		}
		x.accumulateOwned(g)
	}, x)
	return vr
}
