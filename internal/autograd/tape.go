package autograd

import (
	"math"

	"micronets/internal/tensor"
)

// A Tape lends the tensors of one training step and takes them all back
// at once. Every forward output and every backward temporary of an op
// whose inputs carry the tape comes from it, and Release returns them to
// a free list keyed by shape, so the next step, which builds the same
// graph with the same shapes, allocates nothing new. This is the host
// analogue of a compile-time training memory plan.
//
// Lifetime rule: after Release, no tensor an op on the tape produced may
// be read again; read losses and statistics first. Leaf gradients (the
// parameters') never come from a tape: ZeroGrad keeps those buffers from
// step to step. A Tape is not safe for concurrent use; each training loop
// owns one.
type Tape struct {
	free map[shapeKey][]*tensor.Tensor
	live []*tensor.Tensor
}

// shapeKey is a tensor shape as a map key. Every tensor under autograd
// has at most four dimensions (NHWC); a larger rank is never recycled.
type shapeKey struct {
	rank int
	dims [4]int
}

// poisonReleased makes Release fill every tensor it takes back with NaN,
// so an op that reads a recycled buffer before writing all of it turns
// its result NaN. Only tests set it.
var poisonReleased bool

// NewTape returns an empty tape.
func NewTape() *Tape {
	return &Tape{free: map[shapeKey][]*tensor.Tensor{}}
}

// Constant wraps t as a non-trainable leaf whose downstream ops draw their
// tensors from the tape.
func (tp *Tape) Constant(t *tensor.Tensor) *Var {
	return &Var{Value: t, tape: tp}
}

// Release takes back every tensor the tape has lent since the last
// Release.
func (tp *Tape) Release() {
	for i, t := range tp.live {
		if poisonReleased {
			t.Fill(float32(math.NaN()))
		}
		k, _ := keyOf(t.Shape)
		tp.free[k] = append(tp.free[k], t)
		tp.live[i] = nil
	}
	tp.live = tp.live[:0]
}

func keyOf(shape []int) (shapeKey, bool) {
	k := shapeKey{rank: len(shape)}
	if len(shape) > len(k.dims) {
		return k, false
	}
	copy(k.dims[:], shape)
	return k, true
}

// alloc is the one way ops get a tensor: from the tape's free list, or
// tensor.New on a miss, without a tape, or for a rank the tape does not
// key. Its contents are undefined, so the op must overwrite every
// element.
func (tp *Tape) alloc(shape ...int) *tensor.Tensor {
	if tp == nil {
		return tensor.New(shape...)
	}
	k, ok := keyOf(shape)
	if !ok {
		return tensor.New(shape...)
	}
	var t *tensor.Tensor
	if l := tp.free[k]; len(l) > 0 {
		t = l[len(l)-1]
		l[len(l)-1] = nil
		tp.free[k] = l[:len(l)-1]
	} else {
		t = tensor.New(shape...)
	}
	tp.live = append(tp.live, t)
	return t
}

// zeroed is alloc for an op that accumulates into its tensor.
func (tp *Tape) zeroed(shape ...int) *tensor.Tensor {
	t := tp.alloc(shape...)
	if tp != nil {
		clear(t.Data)
	}
	return t
}

// tapeOf returns the tape an op on these inputs draws from: the first
// input's that has one, or nil.
func tapeOf(vs ...*Var) *Tape {
	for _, v := range vs {
		if v != nil && v.tape != nil {
			return v.tape
		}
	}
	return nil
}
