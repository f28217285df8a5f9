// Package autograd implements reverse-mode automatic differentiation over
// the tensor package. It provides the training substrate for the
// reproduction: the paper trains supernets with gradient descent
// ("DNAS uses gradient descent and lends itself to straightforward
// implementation in modern auto-differentiation software"), so this package
// is the Go stand-in for that software.
//
// The design is a dynamic tape: every operation returns a *Var that records
// its parents and a backward closure. Backward(loss) topologically sorts the
// graph and runs the closures in reverse order, accumulating gradients.
package autograd

import (
	"fmt"

	"micronets/internal/tensor"
)

// Var is a node in the autodiff graph: a value, an optional gradient, and
// the recipe to push gradients to its parents.
type Var struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	requiresGrad bool
	parents      []*Var
	back         func()
}

// NewVar wraps a tensor as a leaf variable. If requiresGrad is true the
// variable accumulates gradients during Backward.
func NewVar(t *tensor.Tensor, requiresGrad bool) *Var {
	return &Var{Value: t, requiresGrad: requiresGrad}
}

// Param is shorthand for a trainable leaf.
func Param(t *tensor.Tensor) *Var { return NewVar(t, true) }

// Constant is shorthand for a non-trainable leaf.
func Constant(t *tensor.Tensor) *Var { return NewVar(t, false) }

// Scalar returns the single element of a scalar Var.
func (v *Var) Scalar() float32 {
	if v.Value.Len() != 1 {
		panic(fmt.Sprintf("autograd: Scalar() on non-scalar %v", v.Value.Shape))
	}
	return v.Value.Data[0]
}

// ensureGrad lazily allocates the gradient buffer.
func (v *Var) ensureGrad() *tensor.Tensor {
	if v.Grad == nil {
		v.Grad = tensor.New(v.Value.Shape...)
	}
	return v.Grad
}

// accumulate adds g into v's gradient if v participates in autodiff.
func (v *Var) accumulate(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	tensor.AddInPlace(v.ensureGrad(), g)
}

// ZeroGrad clears the gradient buffer (keeping it allocated).
func (v *Var) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Fill(0)
	}
}

// newOp constructs a non-leaf Var. The backward closure is only retained if
// at least one parent requires gradients, which keeps pure-inference
// forward passes cheap.
func newOp(value *tensor.Tensor, back func(), parents ...*Var) *Var {
	req := false
	for _, p := range parents {
		if p != nil && p.requiresGrad {
			req = true
			break
		}
	}
	v := &Var{Value: value, requiresGrad: req}
	if req {
		v.parents = parents
		v.back = back
	}
	return v
}

// Backward runs reverse-mode differentiation from root, which must be a
// scalar. Gradients accumulate into every reachable Var with
// requiresGrad=true.
func Backward(root *Var) {
	if root.Value.Len() != 1 {
		panic(fmt.Sprintf("autograd: Backward root must be scalar, got %v", root.Value.Shape))
	}
	order := topoSort(root)
	root.ensureGrad().Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil {
			if n.Grad == nil {
				// No gradient flowed to this node (e.g. dead branch).
				n.ensureGrad()
			}
			n.back()
		}
	}
}

// topoSort returns the reachable graph in topological order (parents before
// children), iteratively to avoid stack overflow on deep supernets.
func topoSort(root *Var) []*Var {
	var order []*Var
	seen := map[*Var]bool{}
	type frame struct {
		v    *Var
		next int
	}
	stack := []frame{{v: root}}
	seen[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.v.parents) {
			p := f.v.parents[f.next]
			f.next++
			if p != nil && p.requiresGrad && !seen[p] {
				seen[p] = true
				stack = append(stack, frame{v: p})
			}
			continue
		}
		order = append(order, f.v)
		stack = stack[:len(stack)-1]
	}
	return order
}
