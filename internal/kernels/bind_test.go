package kernels

import (
	"fmt"
	"math/rand"
	"reflect"
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

// defaultBodies returns the Default engine once per body set compiled
// into this binary: the portable microkernels always, the assembly too
// where the host can run it — so one process proves both against
// Reference.
func defaultBodies() map[string]Engine {
	bodies := map[string]Engine{"portable": gemmEngine{simd: false}}
	if haveSIMD {
		bodies["simd"] = gemmEngine{simd: true}
	}
	return bodies
}

// checkParity requires every Default body to reproduce Reference byte
// for byte.
func checkParity(t testing.TB, m *graph.Model, in []int8) {
	t.Helper()
	want := runOp(t, Reference, m, in)
	for body, eng := range defaultBodies() {
		got := runOp(t, eng, m, in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s parity: out[%d] %s/%s=%d reference=%d (op %+v)",
					m.Ops[0].Kind, i, eng.Name(), body, got[i], want[i], m.Ops[0])
			}
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

// TestScalarRequantOutsideVectorDomain: an op with a multiplier >= 1
// (left shift) or below 2^-31 (right shift past 30) is outside the
// assembly epilogue's domain. Prepare must mark it, and every body must
// still match Reference — the simd engine by binding the portable body.
func TestScalarRequantOutsideVectorDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, kind := range []graph.OpKind{graph.OpConv2D, graph.OpDWConv2D} {
		for _, scale := range []float32{40, 1e-11} {
			c := convCase{h: 6, w: 6, inC: 16, outC: 16, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, inZp: -5}
			m := randomConvModel(t, c, kind, rng)
			m.Ops[0].WeightScales[3] = scale
			if PrepareConv(m, m.Ops[0]).vecRequant {
				t.Fatalf("%s with weight scale %g must not be marked for the vector requantize", kind, scale)
			}
			checkParity(t, m, randomInput(m.Tensors[0].Elems(), rng))
		}
	}
}

// TestCtxBytesCountsEverySlice: Bytes feeds tflm.weight_bytes and the
// serve RAM-budget planner, so it must count the capacity of every slice
// a Ctx holds. The sum is taken by reflection: a slice field added to Ctx
// but not to Bytes fails here.
func TestCtxBytesCountsEverySlice(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := convCase{h: 6, w: 6, inC: 9, outC: 21, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, inZp: 3}
	wide := c
	wide.inC = 24 // 16-channel tap-pair groups; C = 9 gets 8-channel ones (on hosts that run them)
	for _, m := range []*graph.Model{
		randomConvModel(t, c, graph.OpConv2D, rng),
		randomConvModel(t, c, graph.OpDWConv2D, rng),
		randomConvModel(t, wide, graph.OpDWConv2D, rng),
	} {
		kind := fmt.Sprintf("%s C=%d", m.Ops[0].Kind, m.Tensors[0].C)
		ctx := PrepareConv(m, m.Ops[0])
		if haveSIMD && m.Ops[0].Kind == graph.OpDWConv2D && m.Tensors[0].C >= dwGroup/2 && len(ctx.dwPairs) == 0 {
			t.Fatalf("%s: no tap pairs prepared for the assembly body", kind)
		}
		want := 0
		v := reflect.ValueOf(ctx).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Slice:
				want += f.Cap() * int(f.Type().Elem().Size())
			case reflect.Ptr, reflect.Map, reflect.Interface, reflect.Array, reflect.Struct:
				t.Fatalf("Ctx.%s: teach Bytes (and this test) to count %s fields", v.Type().Field(i).Name, f.Kind())
			}
		}
		if got := ctx.Bytes(); got != want || got == 0 {
			t.Errorf("%s: Ctx.Bytes() = %d, slices hold %d", kind, got, want)
		}
		if got := PrepareModel(m).Bytes(); got != want {
			t.Errorf("%s: PreparedModel.Bytes() = %d, want the op's %d", kind, got, want)
		}
	}
}
