package autograd

import (
	"fmt"
	"math"

	"micronets/internal/tensor"
)

// Add returns a+b elementwise.
func Add(a, b *Var) *Var {
	out := tensor.Add(a.Value, b.Value)
	var v *Var
	v = newOp(out, func() {
		a.accumulate(v.Grad)
		b.accumulate(v.Grad)
	}, a, b)
	return v
}

// Mul returns a*b elementwise.
func Mul(a, b *Var) *Var {
	out := tensor.Mul(a.Value, b.Value)
	var v *Var
	v = newOp(out, func() {
		a.accumulate(tensor.Mul(v.Grad, b.Value))
		b.accumulate(tensor.Mul(v.Grad, a.Value))
	}, a, b)
	return v
}

// Scale returns a*s for a constant scalar s.
func Scale(a *Var, s float32) *Var {
	out := tensor.Scale(a.Value, s)
	var v *Var
	v = newOp(out, func() {
		a.accumulate(tensor.Scale(v.Grad, s))
	}, a)
	return v
}

// AddScalar returns a+s for a constant scalar s.
func AddScalar(a *Var, s float32) *Var {
	out := tensor.Apply(a.Value, func(x float32) float32 { return x + s })
	var v *Var
	v = newOp(out, func() {
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
	sv := s.Value.Data[0]
	out := tensor.Scale(x.Value, sv)
	var v *Var
	v = newOp(out, func() {
		x.accumulate(tensor.Scale(v.Grad, sv))
		s.accumulate(tensor.Scalar(tensor.Dot(x.Value, v.Grad)).Reshape(s.Value.Shape...))
	}, s, x)
	return v
}

// MatMul returns a@b for 2-D variables.
func MatMul(a, b *Var) *Var {
	out := tensor.MatMul(a.Value, b.Value)
	var v *Var
	v = newOp(out, func() {
		a.accumulate(tensor.MatMulT(v.Grad, b.Value)) // dA = dY @ Bᵀ
		b.accumulate(tensor.TMatMul(a.Value, v.Grad)) // dB = Aᵀ @ dY
	}, a, b)
	return v
}

// Reshape returns a view of a with a new shape.
func Reshape(a *Var, shape ...int) *Var {
	out := a.Value.Reshape(shape...)
	var v *Var
	v = newOp(out, func() {
		a.accumulate(v.Grad.Reshape(a.Value.Shape...))
	}, a)
	return v
}

// ReLU returns max(x, 0).
func ReLU(a *Var) *Var {
	out := tensor.Apply(a.Value, func(x float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	})
	var v *Var
	v = newOp(out, func() {
		g := tensor.New(a.Value.Shape...)
		for i, x := range a.Value.Data {
			if x > 0 {
				g.Data[i] = v.Grad.Data[i]
			}
		}
		a.accumulate(g)
	}, a)
	return v
}

// ReLU6 returns min(max(x,0),6) — the activation used throughout
// MobileNetV2/DS-CNN style MCU models because it bounds activation ranges
// for 8-bit quantization.
func ReLU6(a *Var) *Var {
	out := tensor.Apply(a.Value, func(x float32) float32 {
		if x < 0 {
			return 0
		}
		if x > 6 {
			return 6
		}
		return x
	})
	var v *Var
	v = newOp(out, func() {
		g := tensor.New(a.Value.Shape...)
		for i, x := range a.Value.Data {
			if x > 0 && x < 6 {
				g.Data[i] = v.Grad.Data[i]
			}
		}
		a.accumulate(g)
	}, a)
	return v
}

// Sigmoid returns 1/(1+exp(-x)).
func Sigmoid(a *Var) *Var {
	out := tensor.Apply(a.Value, func(x float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(x))))
	})
	var v *Var
	v = newOp(out, func() {
		g := tensor.New(a.Value.Shape...)
		for i, y := range out.Data {
			g.Data[i] = v.Grad.Data[i] * y * (1 - y)
		}
		a.accumulate(g)
	}, a)
	return v
}

// BiasAdd adds a bias vector along the last dimension of x.
func BiasAdd(x, bias *Var) *Var {
	c := x.Value.Dim(-1)
	if bias.Value.Len() != c {
		panic(fmt.Sprintf("autograd: BiasAdd bias %v vs channels %d", bias.Value.Shape, c))
	}
	out := x.Value.Clone()
	for i := 0; i < out.Len(); i += c {
		for j := 0; j < c; j++ {
			out.Data[i+j] += bias.Value.Data[j]
		}
	}
	var v *Var
	v = newOp(out, func() {
		x.accumulate(v.Grad)
		if bias.requiresGrad {
			db := tensor.New(c)
			for i := 0; i < v.Grad.Len(); i += c {
				for j := 0; j < c; j++ {
					db.Data[j] += v.Grad.Data[i+j]
				}
			}
			bias.accumulate(db)
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
	out := x.Value.Clone()
	for i := 0; i < out.Len(); i += c {
		for j := 0; j < c; j++ {
			out.Data[i+j] *= m.Value.Data[j]
		}
	}
	var v *Var
	v = newOp(out, func() {
		if x.requiresGrad {
			dx := tensor.New(x.Value.Shape...)
			for i := 0; i < v.Grad.Len(); i += c {
				for j := 0; j < c; j++ {
					dx.Data[i+j] = v.Grad.Data[i+j] * m.Value.Data[j]
				}
			}
			x.accumulate(dx)
		}
		if m.requiresGrad {
			dm := tensor.New(c)
			for i := 0; i < v.Grad.Len(); i += c {
				for j := 0; j < c; j++ {
					dm.Data[j] += v.Grad.Data[i+j] * x.Value.Data[i+j]
				}
			}
			dm = dm.Reshape(m.Value.Shape...)
			m.accumulate(dm)
		}
	}, x, m)
	return v
}

// Sum reduces to the scalar sum of all elements.
func Sum(a *Var) *Var {
	out := tensor.Scalar(tensor.Sum(a.Value))
	var v *Var
	v = newOp(out, func() {
		g := tensor.New(a.Value.Shape...).Fill(v.Grad.Data[0])
		a.accumulate(g)
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
		_ = i
	}
	winner := vs[best]
	out := tensor.Scalar(winner.Value.Data[0])
	var v *Var
	v = newOp(out, func() {
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
	n := a.Value.Len()
	out := tensor.New(a.Value.Shape...)
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
	v = newOp(out, func() {
		// dL/da_i = (1/T) * p_i * (g_i - Σ_j g_j p_j)
		var dot float64
		for i := 0; i < n; i++ {
			dot += float64(v.Grad.Data[i]) * float64(out.Data[i])
		}
		g := tensor.New(a.Value.Shape...)
		for i := 0; i < n; i++ {
			g.Data[i] = out.Data[i] * (v.Grad.Data[i] - float32(dot)) / temperature
		}
		a.accumulate(g)
	}, a)
	return v
}

// Index extracts element i of a flat vector as a scalar Var.
func Index(a *Var, i int) *Var {
	out := tensor.Scalar(a.Value.Data[i])
	var v *Var
	v = newOp(out, func() {
		g := tensor.New(a.Value.Shape...)
		g.Data[i] = v.Grad.Data[0]
		a.accumulate(g)
	}, a)
	return v
}
