package kernels

import (
	"testing"

	"micronets/internal/graph"
)

// runOp executes the single-input one-op model m on eng the way an
// interpreter does — prepare, size scratch, BindOp once, call — and
// returns the output bytes.
func runOp(t testing.TB, eng Engine, m *graph.Model, in []int8) []int8 {
	t.Helper()
	op := m.Ops[0]
	out := make([]int8, m.Tensors[op.Output].Elems())
	bufs := make([][]int8, len(m.Tensors))
	bufs[op.Inputs[0]], bufs[op.Output] = in, out
	s := NewScratch(m, make([]int8, eng.ScratchBytes(m)))
	fn, err := BindOp(eng, m, op, PrepareModel(m).Ctx(0), bufs, s)
	if err != nil {
		t.Fatal(err)
	}
	fn()
	return out
}

// checkParity requires Default to reproduce Reference byte for byte.
func checkParity(t testing.TB, m *graph.Model, in []int8) {
	t.Helper()
	want := runOp(t, Reference, m, in)
	got := runOp(t, Default, m, in)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s parity: out[%d] %s=%d reference=%d (op %+v)",
				m.Ops[0].Kind, i, Default.Name(), got[i], want[i], m.Ops[0])
		}
	}
}

// TestBindOpRejectsUnsupportedOp: an op kind the runtime does not
// implement (TransposedConv) must fail at bind time on both engines —
// this is how non-deployability surfaces.
func TestBindOpRejectsUnsupportedOp(t *testing.T) {
	m := tinyConvModel()
	m.Ops[0].Kind = graph.OpTransposedConv
	bufs := [][]int8{make([]int8, 9), make([]int8, 9)}
	for _, eng := range []Engine{Reference, Default} {
		fn, err := BindOp(eng, m, m.Ops[0], nil, bufs, NewScratch(m, nil))
		if err == nil || fn != nil {
			t.Fatalf("%s: transposed conv must be rejected at bind time, got fn=%v err=%v", eng.Name(), fn != nil, err)
		}
	}
}
