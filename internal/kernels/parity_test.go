package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"micronets/internal/graph"
)

// The Default engine must be bit-exact with Reference: identical int8
// output bytes for every op, shape, stride, padding and zero-point
// combination. These tests sweep the geometry space table-driven and
// compare the two engines (bound through BindOp, see bind_test.go) on
// random weights and activations.

type convCase struct {
	h, w, inC, outC int
	kh, kw, sh, sw  int
	padT, padL      int
	padB, padR      int
	inZp            int32
}

func convCases() []convCase {
	return []convCase{
		// 1×1 pointwise (the CMSIS-NN fast path the paper leans on).
		{h: 8, w: 8, inC: 8, outC: 16, kh: 1, kw: 1, sh: 1, sw: 1},
		{h: 7, w: 5, inC: 3, outC: 5, kh: 1, kw: 1, sh: 1, sw: 1},
		{h: 9, w: 9, inC: 17, outC: 13, kh: 1, kw: 1, sh: 1, sw: 1, inZp: -128},
		// 1×1 with stride (not the pointwise fast path: needs im2col).
		{h: 9, w: 9, inC: 4, outC: 4, kh: 1, kw: 1, sh: 2, sw: 2},
		// 3×3 same-padded, odd spatial sizes, assorted channel counts.
		{h: 5, w: 5, inC: 1, outC: 1, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1},
		{h: 7, w: 7, inC: 3, outC: 8, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, inZp: -128},
		{h: 11, w: 9, inC: 5, outC: 7, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, inZp: 4},
		// Strided downsampling with TF-style asymmetric padding.
		{h: 10, w: 10, inC: 8, outC: 16, kh: 3, kw: 3, sh: 2, sw: 2, padT: 0, padL: 0, padB: 1, padR: 1},
		{h: 13, w: 13, inC: 4, outC: 12, kh: 3, kw: 3, sh: 2, sw: 2, padT: 1, padL: 1, padB: 1, padR: 1, inZp: -7},
		// Larger kernels, valid padding, non-square strides.
		{h: 12, w: 12, inC: 2, outC: 6, kh: 5, kw: 5, sh: 1, sw: 1},
		{h: 16, w: 8, inC: 3, outC: 4, kh: 5, kw: 3, sh: 2, sw: 1, padT: 2, padL: 1, padB: 2, padR: 1},
		// Wide output band to exercise multiple GEMM tiles and MR edges.
		{h: 20, w: 19, inC: 9, outC: 21, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, inZp: 33},
		// The shapes the panel layout and the assembly branch on. As
		// pointwise convs: K odd, K < 8, K ≡ 2, 4, 6 (mod 8); N leaving a
		// partial 16-panel or a sub-8-lane requantize tail; rows%4 = 1, 2, 3.
		{h: 5, w: 5, inC: 9, outC: 1, kh: 1, kw: 1, sh: 1, sw: 1},
		{h: 3, w: 2, inC: 2, outC: 2, kh: 1, kw: 1, sh: 1, sw: 1, inZp: 5},
		{h: 7, w: 1, inC: 4, outC: 8, kh: 1, kw: 1, sh: 1, sw: 1},
		{h: 6, w: 6, inC: 6, outC: 12, kh: 1, kw: 1, sh: 1, sw: 1, inZp: -128},
		{h: 4, w: 5, inC: 10, outC: 24, kh: 1, kw: 1, sh: 1, sw: 1},
		{h: 5, w: 5, inC: 12, outC: 84, kh: 1, kw: 1, sh: 1, sw: 1, inZp: -128},
		{h: 3, w: 3, inC: 14, outC: 16, kh: 1, kw: 1, sh: 1, sw: 1},
		{h: 5, w: 4, inC: 7, outC: 24, kh: 1, kw: 1, sh: 1, sw: 1, inZp: 127},
		// The VWW stem: K = 9 through im2col, stride 2, asymmetric pad.
		{h: 16, w: 16, inC: 1, outC: 16, kh: 3, kw: 3, sh: 2, sw: 2, padB: 1, padR: 1, inZp: -128},
		// As depthwise: C%8 != 0 at the zoo's widths (the overlapped last
		// lane group), stride 2 with asymmetric pad, a zero input zero
		// point, and nine taps that are not 3×3.
		{h: 10, w: 5, inC: 84, outC: 4, kh: 3, kw: 3, sh: 2, sw: 2, padT: 1, padB: 1, padR: 1, inZp: -128},
		{h: 6, w: 5, inC: 276, outC: 2, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, inZp: -128},
		{h: 9, w: 9, inC: 24, outC: 8, kh: 3, kw: 3, sh: 2, sw: 2, padB: 1, padR: 1},
		{h: 4, w: 12, inC: 8, outC: 4, kh: 1, kw: 9, sh: 1, sw: 1, padL: 4, padR: 4, inZp: 9},
		// As depthwise: the 16-channel tap-pair groups, one exactly and
		// three with an overlapped last one, and the 1×9 kernel on them;
		// then two overlapped 8-channel groups.
		{h: 7, w: 9, inC: 16, outC: 3, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, inZp: 127},
		{h: 8, w: 6, inC: 40, outC: 5, kh: 3, kw: 3, sh: 2, sw: 2, padB: 1, padR: 1, inZp: -2},
		{h: 4, w: 12, inC: 20, outC: 4, kh: 1, kw: 9, sh: 1, sw: 1, padL: 4, padR: 4, inZp: -9},
		{h: 6, w: 7, inC: 12, outC: 3, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, inZp: -5},
	}
}

func convOut(h, pad, k, s int) int { return (h+pad-k)/s + 1 }

func randomConvModel(t *testing.T, c convCase, kind graph.OpKind, rng *rand.Rand) *graph.Model {
	t.Helper()
	oh := convOut(c.h, c.padT+c.padB, c.kh, c.sh)
	ow := convOut(c.w, c.padL+c.padR, c.kw, c.sw)
	outC := c.outC
	var nW int
	switch kind {
	case graph.OpConv2D:
		nW = c.kh * c.kw * c.inC * outC
	case graph.OpDWConv2D:
		outC = c.inC
		nW = c.kh * c.kw * outC
	default:
		t.Fatalf("bad kind %v", kind)
	}
	m := &graph.Model{Name: "parity"}
	m.Tensors = []*graph.Tensor{
		{ID: 0, Name: "in", H: c.h, W: c.w, C: c.inC, Scale: 0.05, ZeroPoint: c.inZp, Bits: 8},
		{ID: 1, Name: "out", H: oh, W: ow, C: outC, Scale: 0.1, ZeroPoint: -3, Bits: 8},
	}
	op := &graph.Op{
		Kind: kind, Name: "op", Inputs: []int{0}, Output: 1,
		KH: c.kh, KW: c.kw, SH: c.sh, SW: c.sw,
		PadTop: c.padT, PadLeft: c.padL, PadBottom: c.padB, PadRight: c.padR,
		Weights: make([]int8, nW), WeightBits: 8,
		WeightScales: make([]float32, outC),
		Bias:         make([]int32, outC),
		ClampMin:     -128, ClampMax: 127,
	}
	for i := range op.Weights {
		op.Weights[i] = int8(rng.Intn(256) - 128)
	}
	for i := 0; i < outC; i++ {
		op.WeightScales[i] = 0.02 + 0.01*float32(i%5)
		op.Bias[i] = int32(rng.Intn(2048) - 1024)
	}
	m.Ops = []*graph.Op{op}
	m.Input, m.Output = 0, 1
	return m
}

func randomInput(n int, rng *rand.Rand) []int8 {
	in := make([]int8, n)
	for i := range in {
		in[i] = int8(rng.Intn(256) - 128)
	}
	return in
}

func TestConv2DGemmParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range convCases() {
		c := c
		name := fmt.Sprintf("h%dw%d_c%dx%d_k%dx%d_s%d%d_p%d%d%d%d_zp%d",
			c.h, c.w, c.inC, c.outC, c.kh, c.kw, c.sh, c.sw, c.padT, c.padL, c.padB, c.padR, c.inZp)
		t.Run(name, func(t *testing.T) {
			m := randomConvModel(t, c, graph.OpConv2D, rng)
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			checkParity(t, m, randomInput(m.Tensors[0].Elems(), rng))
		})
	}
}

func TestDWConv2DGemmParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range convCases() {
		c := c
		name := fmt.Sprintf("h%dw%d_c%d_k%dx%d_s%d%d_zp%d", c.h, c.w, c.inC, c.kh, c.kw, c.sh, c.sw, c.inZp)
		t.Run(name, func(t *testing.T) {
			m := randomConvModel(t, c, graph.OpDWConv2D, rng)
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			checkParity(t, m, randomInput(m.Tensors[0].Elems(), rng))
		})
	}
}

func TestDenseGemmParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []struct{ in, out int }{
		{1, 1}, {3, 2}, {16, 12}, {64, 10}, {127, 33}, {256, 5},
		{9, 1}, {2, 8}, {6, 12}, {7, 24}, {40, 84}, {196, 16},
	} {
		t.Run(fmt.Sprintf("in%d_out%d", n.in, n.out), func(t *testing.T) {
			m := &graph.Model{Name: "fc"}
			m.Tensors = []*graph.Tensor{
				{ID: 0, Name: "in", H: 1, W: 1, C: n.in, Scale: 0.1, ZeroPoint: 5, Bits: 8},
				{ID: 1, Name: "out", H: 1, W: 1, C: n.out, Scale: 0.2, ZeroPoint: -1, Bits: 8},
			}
			op := &graph.Op{
				Kind: graph.OpDense, Name: "fc", Inputs: []int{0}, Output: 1,
				Weights: make([]int8, n.in*n.out), WeightBits: 8,
				WeightScales: make([]float32, n.out), Bias: make([]int32, n.out),
				ClampMin: -128, ClampMax: 127,
			}
			for i := range op.Weights {
				op.Weights[i] = int8(rng.Intn(256) - 128)
			}
			for i := 0; i < n.out; i++ {
				op.WeightScales[i] = 0.05
				op.Bias[i] = int32(rng.Intn(512) - 256)
			}
			m.Ops = []*graph.Op{op}
			m.Input, m.Output = 0, 1
			checkParity(t, m, randomInput(n.in, rng))
		})
	}
}

func TestPoolGemmParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range []struct{ h, w, ch, k, s int }{
		{4, 4, 1, 2, 2}, {7, 7, 3, 3, 2}, {10, 10, 8, 2, 2}, {25, 5, 4, 5, 5}, {6, 6, 16, 6, 6},
	} {
		for _, kind := range []graph.OpKind{graph.OpAvgPool, graph.OpMaxPool} {
			t.Run(fmt.Sprintf("%s_h%dw%dc%d_k%ds%d", kind, c.h, c.w, c.ch, c.k, c.s), func(t *testing.T) {
				oh := (c.h-c.k)/c.s + 1
				ow := (c.w-c.k)/c.s + 1
				m := &graph.Model{Name: "pool"}
				m.Tensors = []*graph.Tensor{
					{ID: 0, Name: "in", H: c.h, W: c.w, C: c.ch, Scale: 1, Bits: 8},
					{ID: 1, Name: "out", H: oh, W: ow, C: c.ch, Scale: 1, Bits: 8},
				}
				op := &graph.Op{
					Kind: kind, Name: "pool", Inputs: []int{0}, Output: 1,
					KH: c.k, KW: c.k, SH: c.s, SW: c.s, ClampMin: -128, ClampMax: 127,
				}
				m.Ops = []*graph.Op{op}
				m.Input, m.Output = 0, 1
				checkParity(t, m, randomInput(c.h*c.w*c.ch, rng))
			})
		}
	}
}

// TestGemmDeterministic re-runs the parallel conv on the same inputs and
// demands identical bytes: goroutine scheduling must never leak into the
// result.
func TestGemmDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := convCase{h: 16, w: 16, inC: 8, outC: 24, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, inZp: -128}
	m := randomConvModel(t, c, graph.OpConv2D, rng)
	in := randomInput(m.Tensors[0].Elems(), rng)
	first := runOp(t, Default, m, in)
	for trial := 0; trial < 10; trial++ {
		got := runOp(t, Default, m, in)
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d: nondeterministic out[%d]: %d vs %d", trial, i, got[i], first[i])
			}
		}
	}
}
