package autograd

import (
	"fmt"

	"micronets/internal/tensor"
)

// GradCheck compares the analytic gradient of f with a central finite
// difference approximation for every element of every input. f must build a
// fresh graph from the inputs each call and return a scalar Var. It returns
// the worst absolute error observed, or an error describing the first
// element exceeding tol.
//
// This is the correctness backstop for the whole training stack: every op
// in this package has a GradCheck-based test.
func GradCheck(f func(inputs []*Var) *Var, inputs []*tensor.Tensor, eps, tol float64) (float64, error) {
	vars := make([]*Var, len(inputs))
	for i, t := range inputs {
		vars[i] = Param(t)
	}
	loss := f(vars)
	Backward(loss)

	worst := 0.0
	for vi, t := range inputs {
		analytic := vars[vi].Grad
		if analytic == nil {
			analytic = tensor.New(t.Shape...)
		}
		for ei := range t.Data {
			orig := t.Data[ei]
			t.Data[ei] = orig + float32(eps)
			plus := float64(f(constVars(inputs)).Scalar())
			t.Data[ei] = orig - float32(eps)
			minus := float64(f(constVars(inputs)).Scalar())
			t.Data[ei] = orig
			numeric := (plus - minus) / (2 * eps)
			diff := abs(numeric - float64(analytic.Data[ei]))
			denom := 1.0 + abs(numeric)
			rel := diff / denom
			if rel > worst {
				worst = rel
			}
			if !(rel <= tol) { // NaN fails too
				return worst, fmt.Errorf(
					"gradcheck: input %d elem %d: analytic %g vs numeric %g (rel err %g > tol %g)",
					vi, ei, analytic.Data[ei], numeric, rel, tol)
			}
		}
	}
	return worst, nil
}

func constVars(ts []*tensor.Tensor) []*Var {
	vs := make([]*Var, len(ts))
	for i, t := range ts {
		vs[i] = Param(t) // params so the graph is built identically
	}
	return vs
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Mean reduces to the scalar mean of all elements.
func Mean(a *Var) *Var {
	tp := tapeOf(a)
	out := tp.alloc()
	out.Data[0] = tensor.Mean(a.Value)
	inv := 1 / float32(a.Value.Len())
	var v *Var
	v = newOp(tp, out, func() {
		a.accumulateOwned(tp.alloc(a.Value.Shape...).Fill(v.Grad.Data[0] * inv))
	}, a)
	return v
}

// Square returns x*x elementwise.
func Square(a *Var) *Var {
	tp := tapeOf(a)
	out := tensor.Mul(tp.alloc(a.Value.Shape...), a.Value, a.Value)
	var v *Var
	v = newOp(tp, out, func() {
		g := tensor.Mul(tp.alloc(a.Value.Shape...), v.Grad, a.Value)
		a.accumulateOwned(tensor.Scale(g, g, 2))
	}, a)
	return v
}
