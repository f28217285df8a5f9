package kernels

import (
	"fmt"

	"micronets/internal/graph"
)

// The bind layer: instead of re-deriving tensor shapes, scratch slices
// and parallel closures on every Invoke (which costs allocations —
// closures escaping to the worker pool, accumulator slices, softmax
// staging), an interpreter binds each op ONCE at construction into a
// plain func() that captures everything it needs. The steady-state
// invoke loop is then just calling pre-bound funcs — zero allocations,
// proven by the AllocsPerRun tests in tflm.

// BindOp resolves one op against an engine, a prepared context, and the
// caller's buffers into a repeatedly-callable executor — the only way an
// op runs on an engine. All dispatch, shape derivation, and scratch
// slicing happens here, once; unsupported ops surface as an error at
// bind time instead of at invoke time. s must be sized for the model
// (NewScratch, with Im2col holding eng.ScratchBytes). The returned func
// reads in-place from bufs, so callers rewrite inputs between
// invocations rather than rebinding.
func BindOp(eng Engine, m *graph.Model, op *graph.Op, ctx *Ctx, bufs [][]int8, s *Scratch) (func(), error) {
	out := bufs[op.Output]
	switch op.Kind {
	case graph.OpConv2D:
		return eng.bindConv2D(m, op, ctx, bufs[op.Inputs[0]], out, s), nil
	case graph.OpDWConv2D:
		return eng.bindDWConv2D(m, op, ctx, bufs[op.Inputs[0]], out, s), nil
	case graph.OpDense:
		return eng.bindDense(m, op, ctx, bufs[op.Inputs[0]], out, s), nil
	case graph.OpAvgPool:
		return eng.bindAvgPool(m, op, bufs[op.Inputs[0]], out, s), nil
	case graph.OpMaxPool:
		return eng.bindMaxPool(m, op, bufs[op.Inputs[0]], out, s), nil
	case graph.OpAdd:
		x, y := bufs[op.Inputs[0]], bufs[op.Inputs[1]]
		return func() { Add(m, op, x, y, out) }, nil
	case graph.OpSoftmax:
		in := bufs[op.Inputs[0]]
		logits := s.F64[:m.Tensors[op.Inputs[0]].Elems()]
		return func() { softmaxInto(m, op, in, out, logits) }, nil
	default:
		return nil, fmt.Errorf("kernels: op %s (%s) is not supported by the runtime", op.Name, op.Kind)
	}
}

// Reference binds to plain direct-kernel calls; it needs no scratch and
// no parallelism, so its bound form is allocation-free too.
func (refEngine) bindConv2D(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, _ *Scratch) func() {
	return func() { Conv2D(m, op, ctx, in, out) }
}

func (refEngine) bindDWConv2D(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, _ *Scratch) func() {
	return func() { DWConv2D(m, op, ctx, in, out) }
}

func (refEngine) bindDense(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, _ *Scratch) func() {
	return func() { Dense(m, op, ctx, in, out) }
}

func (refEngine) bindAvgPool(m *graph.Model, op *graph.Op, in, out []int8, _ *Scratch) func() {
	return func() { AvgPool(m, op, in, out) }
}

func (refEngine) bindMaxPool(m *graph.Model, op *graph.Op, in, out []int8, _ *Scratch) func() {
	return func() { MaxPool(m, op, in, out) }
}
