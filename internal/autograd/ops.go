package autograd

import (
	"fmt"
	"math"

	"micronets/internal/tensor"
)

// Add returns a+b elementwise.
func Add(a, b *Var) *Var {
	tp := tapeOf(a, b)
	out := tensor.Add(tp.alloc(a.Value.Shape...), a.Value, b.Value)
	var v *Var
	v = newOp(tp, out, func() {
		a.accumulate(v.Grad)
		b.accumulate(v.Grad)
	}, a, b)
	return v
}

// Mul returns a*b elementwise.
func Mul(a, b *Var) *Var {
	tp := tapeOf(a, b)
	out := tensor.Mul(tp.alloc(a.Value.Shape...), a.Value, b.Value)
	var v *Var
	v = newOp(tp, out, func() {
		if a.requiresGrad {
			a.accumulateOwned(tensor.Mul(tp.alloc(a.Value.Shape...), v.Grad, b.Value))
		}
		if b.requiresGrad {
			b.accumulateOwned(tensor.Mul(tp.alloc(b.Value.Shape...), v.Grad, a.Value))
		}
	}, a, b)
	return v
}

// Scale returns a*s for a constant scalar s.
func Scale(a *Var, s float32) *Var {
	tp := tapeOf(a)
	out := tensor.Scale(tp.alloc(a.Value.Shape...), a.Value, s)
	var v *Var
	v = newOp(tp, out, func() {
		a.accumulateOwned(tensor.Scale(tp.alloc(a.Value.Shape...), v.Grad, s))
	}, a)
	return v
}

// AddScalar returns a+s for a constant scalar s.
func AddScalar(a *Var, s float32) *Var {
	tp := tapeOf(a)
	out := tp.alloc(a.Value.Shape...)
	y := out.Data[:len(a.Value.Data)]
	for i, x := range a.Value.Data {
		y[i] = x + s
	}
	var v *Var
	v = newOp(tp, out, func() {
		a.accumulate(v.Grad)
	}, a)
	return v
}

// ScalarMul returns x scaled by a scalar variable s (s participates in
// gradients). This is the core primitive behind DNAS decision nodes:
// y = z_k * f_k(x).
func ScalarMul(s, x *Var) *Var {
	if s.Value.Len() != 1 {
		panic(fmt.Sprintf("autograd: ScalarMul scale must be scalar, got %v", s.Value.Shape))
	}
	tp := tapeOf(s, x)
	sv := s.Value.Data[0]
	out := tensor.Scale(tp.alloc(x.Value.Shape...), x.Value, sv)
	var v *Var
	v = newOp(tp, out, func() {
		if x.requiresGrad {
			x.accumulateOwned(tensor.Scale(tp.alloc(x.Value.Shape...), v.Grad, sv))
		}
		if s.requiresGrad {
			ds := tp.alloc(s.Value.Shape...)
			ds.Data[0] = tensor.Dot(x.Value, v.Grad)
			s.accumulateOwned(ds)
		}
	}, s, x)
	return v
}

// MatMul returns a@b for 2-D variables.
func MatMul(a, b *Var) *Var {
	tp := tapeOf(a, b)
	out := tensor.MatMul(tp.alloc(a.Value.Shape[0], b.Value.Shape[1]), a.Value, b.Value)
	var v *Var
	v = newOp(tp, out, func() {
		if a.requiresGrad { // dA = dY @ Bᵀ
			bT := tp.alloc(b.Value.Shape[1], b.Value.Shape[0])
			a.accumulateOwned(tensor.MatMulT(tp.alloc(a.Value.Shape...), v.Grad, b.Value, bT))
		}
		if b.requiresGrad { // dB = Aᵀ @ dY
			b.accumulateOwned(tensor.TMatMul(tp.alloc(b.Value.Shape...), a.Value, v.Grad))
		}
	}, a, b)
	return v
}

// Reshape returns a view of a with a new shape.
func Reshape(a *Var, shape ...int) *Var {
	out := a.Value.Reshape(shape...)
	var v *Var
	v = newOp(tapeOf(a), out, func() {
		a.accumulate(v.Grad.Reshape(a.Value.Shape...))
	}, a)
	return v
}

// ReLU returns max(x, 0): x where x > 0, else +0 (NaN included).
func ReLU(a *Var) *Var {
	tp := tapeOf(a)
	x := a.Value.Data
	out := tp.alloc(a.Value.Shape...)
	y := out.Data[:len(x)]
	for i, xv := range x {
		y[i] = math.Float32frombits(positiveBits(xv, xv))
	}
	var v *Var
	v = newOp(tp, out, func() {
		g := tp.alloc(a.Value.Shape...)
		gd, dy := g.Data[:len(x)], v.Grad.Data[:len(x)]
		for i, xv := range x {
			gd[i] = math.Float32frombits(positiveBits(xv, dy[i]))
		}
		a.accumulateOwned(g)
	}, a)
	return v
}

// positiveBits returns the bits of v if x > 0 and 0 (the bits of +0)
// otherwise, without a branch: ReLU's inputs are positive about half the
// time, so a branch there mispredicts on every other element. x > 0 holds
// exactly when x's bits, less one, fall below those of +Inf (sign clear,
// not +0, not NaN); the 64-bit difference is negative then, and its sign
// is the mask.
func positiveBits(x, v float32) uint32 {
	mask := uint32((int64(math.Float32bits(x)-1) - 0x7f800000) >> 63)
	return math.Float32bits(v) & mask
}

// ReLU6 returns min(max(x,0),6) — the activation used throughout
// MobileNetV2/DS-CNN style MCU models because it bounds activation ranges
// for 8-bit quantization.
func ReLU6(a *Var) *Var {
	tp := tapeOf(a)
	x := a.Value.Data
	out := tp.alloc(a.Value.Shape...)
	y := out.Data[:len(x)]
	for i, xv := range x {
		switch {
		case xv < 0:
			y[i] = 0
		case xv > 6:
			y[i] = 6
		default:
			y[i] = xv
		}
	}
	var v *Var
	v = newOp(tp, out, func() {
		g := tp.alloc(a.Value.Shape...)
		gd, dy := g.Data[:len(x)], v.Grad.Data[:len(x)]
		for i, xv := range x {
			if xv > 0 && xv < 6 {
				gd[i] = dy[i]
			} else {
				gd[i] = 0
			}
		}
		a.accumulateOwned(g)
	}, a)
	return v
}

// BiasAdd adds a bias vector along the last dimension of x.
func BiasAdd(x, bias *Var) *Var {
	c := x.Value.Dim(-1)
	if bias.Value.Len() != c {
		panic(fmt.Sprintf("autograd: BiasAdd bias %v vs channels %d", bias.Value.Shape, c))
	}
	tp := tapeOf(x, bias)
	out := tp.alloc(x.Value.Shape...)
	bd := bias.Value.Data[:c]
	for i := 0; i < out.Len(); i += c {
		xr, yr := x.Value.Data[i:i+c], out.Data[i:i+c]
		for j, b := range bd {
			yr[j] = xr[j] + b
		}
	}
	var v *Var
	v = newOp(tp, out, func() {
		x.accumulate(v.Grad)
		if bias.requiresGrad {
			db := tp.zeroed(c)
			for i := 0; i < v.Grad.Len(); i += c {
				for j, g := range v.Grad.Data[i : i+c] {
					db.Data[j] += g
				}
			}
			bias.accumulateOwned(db)
		}
	}, x, bias)
	return v
}

// ChannelScale multiplies x by a per-channel vector m along the last
// dimension. It implements FBNetV2-style channel masking, which is how the
// DNAS search relaxes width choices: y = x * (Σ_k z_k mask_k).
func ChannelScale(x, m *Var) *Var {
	c := x.Value.Dim(-1)
	if m.Value.Len() != c {
		panic(fmt.Sprintf("autograd: ChannelScale mask %v vs channels %d", m.Value.Shape, c))
	}
	tp := tapeOf(x, m)
	out := tp.alloc(x.Value.Shape...)
	md := m.Value.Data[:c]
	for i := 0; i < out.Len(); i += c {
		xr, yr := x.Value.Data[i:i+c], out.Data[i:i+c]
		for j, s := range md {
			yr[j] = xr[j] * s
		}
	}
	var v *Var
	v = newOp(tp, out, func() {
		if x.requiresGrad {
			dx := tp.alloc(x.Value.Shape...)
			for i := 0; i < v.Grad.Len(); i += c {
				gr, dr := v.Grad.Data[i:i+c], dx.Data[i:i+c]
				for j, s := range md {
					dr[j] = gr[j] * s
				}
			}
			x.accumulateOwned(dx)
		}
		if m.requiresGrad {
			dm := tp.zeroed(m.Value.Shape...)
			dd := dm.Data[:c]
			for i := 0; i < v.Grad.Len(); i += c {
				gr, xr := v.Grad.Data[i:i+c], x.Value.Data[i:i+c]
				for j, g := range gr {
					dd[j] += g * xr[j]
				}
			}
			m.accumulateOwned(dm)
		}
	}, x, m)
	return v
}

// Sum reduces to the scalar sum of all elements.
func Sum(a *Var) *Var {
	tp := tapeOf(a)
	out := tp.alloc()
	out.Data[0] = tensor.Sum(a.Value)
	var v *Var
	v = newOp(tp, out, func() {
		a.accumulateOwned(tp.alloc(a.Value.Shape...).Fill(v.Grad.Data[0]))
	}, a)
	return v
}

// MaxN returns the elementwise-scalar maximum of scalar variables, routing
// the gradient to the (first) argmax. Used for the SRAM working-memory
// model: total working memory = max over graph nodes.
func MaxN(vs ...*Var) *Var {
	if len(vs) == 0 {
		panic("autograd: MaxN of nothing")
	}
	best := 0
	for i, x := range vs {
		if x.Value.Data[0] > vs[best].Value.Data[0] {
			best = i
		}
	}
	winner := vs[best]
	tp := tapeOf(vs...)
	out := tp.alloc()
	out.Data[0] = winner.Value.Data[0]
	var v *Var
	v = newOp(tp, out, func() {
		winner.accumulate(v.Grad.Reshape(winner.Value.Shape...))
	}, vs...)
	return v
}

// SoftmaxVec computes softmax over a flat vector (used for DNAS
// architecture parameters, optionally with a temperature).
func SoftmaxVec(a *Var, temperature float32) *Var {
	if temperature <= 0 {
		panic("autograd: SoftmaxVec temperature must be positive")
	}
	tp := tapeOf(a)
	n := a.Value.Len()
	out := tp.alloc(a.Value.Shape...)
	maxv := tensor.Max(a.Value)
	var sum float64
	for i := 0; i < n; i++ {
		e := math.Exp(float64((a.Value.Data[i] - maxv) / temperature))
		out.Data[i] = float32(e)
		sum += e
	}
	for i := 0; i < n; i++ {
		out.Data[i] = float32(float64(out.Data[i]) / sum)
	}
	var v *Var
	v = newOp(tp, out, func() {
		// dL/da_i = (1/T) * p_i * (g_i - Σ_j g_j p_j)
		var dot float64
		for i := 0; i < n; i++ {
			dot += float64(v.Grad.Data[i]) * float64(out.Data[i])
		}
		g := tp.alloc(a.Value.Shape...)
		for i := 0; i < n; i++ {
			g.Data[i] = out.Data[i] * (v.Grad.Data[i] - float32(dot)) / temperature
		}
		a.accumulateOwned(g)
	}, a)
	return v
}

// Index extracts element i of a flat vector as a scalar Var.
func Index(a *Var, i int) *Var {
	tp := tapeOf(a)
	out := tp.alloc()
	out.Data[0] = a.Value.Data[i]
	var v *Var
	v = newOp(tp, out, func() {
		g := tp.zeroed(a.Value.Shape...)
		g.Data[i] = v.Grad.Data[0]
		a.accumulateOwned(g)
	}, a)
	return v
}
