package kernels

import (
	"micronets/internal/graph"
)

// Scratch is the per-invocation mutable state one interpreter (or other
// exclusive caller) owns: every buffer a kernel needs beyond its input,
// output, and immutable prepared weights. It exists so the steady-state
// invoke path allocates nothing — each region is sized once for the
// whole model and reused by every op that needs it. A Scratch must not
// be shared by concurrent invokes (it is the mutable half of the
// prepared/shared split; see PreparedModel for the immutable half).
type Scratch struct {
	// Par is the reusable fork-join context every parallel op runs on.
	Par Parallel
	// Im2col is the Default engine's patch-gather region: Workers() tiles of
	// gemmTileM rows, sized for the largest non-pointwise convolution
	// (Engine.ScratchBytes). Interpreters carve it from the arena tail so
	// it stays planner-accounted.
	Im2col []int8
	// Acc is the depthwise engine's per-worker int32 accumulator rows:
	// Workers() × the widest depthwise channel count.
	Acc []int32
	// F64 is the softmax staging buffer, sized for the widest softmax.
	F64 []float64
}

// NewScratch builds a Scratch for a model, adopting im2col (usually the
// interpreter's arena tail; may be nil for models with no non-pointwise
// convs) and allocating the typed regions the model's ops need.
func NewScratch(m *graph.Model, im2col []int8) *Scratch {
	s := &Scratch{Im2col: im2col}
	maxC, maxSoft := 0, 0
	for _, op := range m.Ops {
		switch op.Kind {
		case graph.OpDWConv2D:
			if c := m.Tensors[op.Output].C; c > maxC {
				maxC = c
			}
		case graph.OpSoftmax:
			if n := m.Tensors[op.Inputs[0]].Elems(); n > maxSoft {
				maxSoft = n
			}
		}
	}
	if maxC > 0 {
		s.Acc = make([]int32, Workers()*maxC)
	}
	if maxSoft > 0 {
		s.F64 = make([]float64, maxSoft)
	}
	return s
}
