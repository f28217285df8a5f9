// Package core implements the paper's primary contribution: differentiable
// neural architecture search (DNAS) for MCU-constrained models (§5).
//
// A supernet is a network whose convolutions carry *decision nodes*:
// y = Σ_k z_k f_k(x, θ_k), Σ_k z_k = 1 (eq. 1). Width choices are relaxed
// FBNetV2-style — the convolution runs at maximum width and the output is
// masked by a convex combination of channel masks — and depth choices put
// an identity/pooling shortcut in parallel with each block. The z are
// Gumbel-softmax samples of trainable logits, so the architecture is
// learned by gradient descent together with the weights, regularized by
// differentiable eFlash-size, SRAM-working-memory and op-count (latency
// proxy, §3) penalties.
//
// The DS-CNN search space is declared once, as Space, the discrete form
// the evolutionary harness samples and mutates; Space.Supernet derives its
// relaxation, and Supernet.Discretize maps a trained supernet back into
// the same Space.
package core

import (
	"fmt"
	"math"
	"math/rand"

	ag "micronets/internal/autograd"
	"micronets/internal/tensor"
)

// DecisionNode is one K-way architecture decision with trainable logits.
type DecisionNode struct {
	Name string
	// Alpha are the architecture logits (one per option).
	Alpha *ag.Var
	// K is the number of options.
	K int
}

// NewDecisionNode creates a node with uniform logits.
func NewDecisionNode(name string, k int) *DecisionNode {
	return &DecisionNode{Name: name, Alpha: ag.Param(tensor.New(k)), K: k}
}

// Weights returns the relaxed selection z. With rng non-nil it draws a
// Gumbel-softmax sample at the given temperature (training); with rng nil
// it returns the plain softmax (evaluation).
func (d *DecisionNode) Weights(rng *rand.Rand, temperature float32) *ag.Var {
	logits := d.Alpha
	if rng != nil {
		g := tensor.New(d.K)
		for i := range g.Data {
			u := rng.Float64()
			if u < 1e-12 {
				u = 1e-12
			}
			g.Data[i] = float32(-math.Log(-math.Log(u)))
		}
		logits = ag.Add(d.Alpha, ag.Constant(g))
	}
	return ag.SoftmaxVec(logits, temperature)
}

// ArgMax returns the currently preferred option.
func (d *DecisionNode) ArgMax() int {
	best := 0
	for i := 1; i < d.K; i++ {
		if d.Alpha.Value.Data[i] > d.Alpha.Value.Data[best] {
			best = i
		}
	}
	return best
}

// channelMask builds the convex channel mask m = Σ_k z_k mask_k over
// the largest option's channels, where mask_k enables the first
// options[k] channels. The result is a differentiable function of z.
func channelMask(z *ag.Var, options []int) *ag.Var {
	if len(options) != z.Value.Len() {
		panic(fmt.Sprintf("core: %d options vs %d weights", len(options), z.Value.Len()))
	}
	// m_c = Σ_{k: options[k] > c} z_k, as a matrix multiply: mask = Mᵀz
	// with M[k][c] = 1[c < options[k]].
	maxC := options[len(options)-1]
	mt := tensor.New(len(options), maxC)
	for k, c := range options {
		for j := range min(c, maxC) {
			mt.Data[k*maxC+j] = 1
		}
	}
	m := ag.MatMul(ag.Reshape(z, 1, len(options)), ag.Constant(mt)) // [1, maxC]
	return ag.Reshape(m, maxC)
}
