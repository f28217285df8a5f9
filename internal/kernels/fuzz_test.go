package kernels

import (
	"math"
	"math/rand"
	"testing"

	"micronets/internal/graph"
	"micronets/internal/tensor"
)

// Native Go fuzz harnesses over the lower→invoke numerics. The invariant
// throughout is the one the whole engine rests on: the optimized Gemm
// path must be bit-exact with the Reference loops for every reachable
// shape, stride, padding, zero point and data pattern — not just the
// table-driven cases in parity_test.go. Run continuously with
//
//	go test -fuzz FuzzConv2DParity -fuzztime 30s ./internal/kernels
//
// CI runs each target for a short smoke window (see .github/workflows).

// fuzzDims clamps fuzzed geometry into the envelope the runtime actually
// lowers (and keeps per-exec cost small enough to get useful throughput).
func fuzzDims(h, w, inC, outC, kh, kw, stride uint8) (int, int, int, int, int, int, int) {
	return 1 + int(h%14), 1 + int(w%14), 1 + int(inC%17), 1 + int(outC%17),
		1 + int(kh%5), 1 + int(kw%5), 1 + int(stride%3)
}

// buildConvCase constructs a valid single-op conv/dwconv model from
// fuzzed raw values, or nil when the combination has no valid output
// geometry.
func buildConvCase(kind graph.OpKind, h, w, inC, outC, kh, kw, stride uint8, same bool, inZp int8, dataSeed int64) (*graph.Model, []int8) {
	H, W, IC, OC, KH, KW, S := fuzzDims(h, w, inC, outC, kh, kw, stride)
	var padT, padL, padB, padR int
	if same {
		spec := tensor.Same(KH, KW, S, S, H, W)
		padT, padL, padB, padR = spec.PadTop, spec.PadLeft, spec.PadBottom, spec.PadRight
	}
	oh := (H+padT+padB-KH)/S + 1
	ow := (W+padL+padR-KW)/S + 1
	if oh < 1 || ow < 1 {
		return nil, nil
	}
	if kind == graph.OpDWConv2D {
		OC = IC
	}
	rng := rand.New(rand.NewSource(dataSeed))
	nW := KH * KW * IC * OC
	if kind == graph.OpDWConv2D {
		nW = KH * KW * OC
	}
	m := &graph.Model{Name: "fuzz"}
	m.Tensors = []*graph.Tensor{
		{ID: 0, Name: "in", H: H, W: W, C: IC, Scale: 0.05, ZeroPoint: int32(inZp), Bits: 8},
		{ID: 1, Name: "out", H: oh, W: ow, C: OC, Scale: 0.1, ZeroPoint: -3, Bits: 8},
	}
	op := &graph.Op{
		Kind: kind, Name: "op", Inputs: []int{0}, Output: 1,
		KH: KH, KW: KW, SH: S, SW: S,
		PadTop: padT, PadLeft: padL, PadBottom: padB, PadRight: padR,
		Weights: make([]int8, nW), WeightBits: 8,
		WeightScales: make([]float32, OC), Bias: make([]int32, OC),
		ClampMin: -128, ClampMax: 127,
	}
	for i := range op.Weights {
		op.Weights[i] = int8(rng.Intn(256) - 128)
	}
	for i := 0; i < OC; i++ {
		op.WeightScales[i] = 0.005 + 0.05*rng.Float32()
		op.Bias[i] = int32(rng.Intn(4096) - 2048)
	}
	m.Ops = []*graph.Op{op}
	m.Input, m.Output = 0, 1
	in := make([]int8, H*W*IC)
	for i := range in {
		in[i] = int8(rng.Intn(256) - 128)
	}
	return m, in
}

func FuzzConv2DParity(f *testing.F) {
	// Seed corpus: the pointwise fast path, strided im2col, asymmetric
	// same-padding, the div-4 channel boundary, and extreme zero points.
	f.Add(uint8(8), uint8(8), uint8(8), uint8(16), uint8(1), uint8(1), uint8(1), false, int8(0), int64(1))
	f.Add(uint8(9), uint8(9), uint8(3), uint8(5), uint8(3), uint8(3), uint8(2), true, int8(-128), int64(2))
	f.Add(uint8(13), uint8(5), uint8(4), uint8(12), uint8(5), uint8(3), uint8(2), true, int8(127), int64(3))
	f.Add(uint8(12), uint8(12), uint8(7), uint8(21), uint8(3), uint8(3), uint8(1), true, int8(33), int64(4))
	f.Fuzz(func(t *testing.T, h, w, inC, outC, kh, kw, stride uint8, same bool, inZp int8, dataSeed int64) {
		m, in := buildConvCase(graph.OpConv2D, h, w, inC, outC, kh, kw, stride, same, inZp, dataSeed)
		if m == nil {
			t.Skip()
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("fuzz built invalid model: %v", err)
		}
		checkParity(t, m, in)
	})
}

func FuzzDWConv2DParity(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint8(0), uint8(3), uint8(3), uint8(1), true, int8(-128), int64(1))
	f.Add(uint8(10), uint8(10), uint8(5), uint8(0), uint8(3), uint8(3), uint8(2), true, int8(4), int64(2))
	f.Add(uint8(5), uint8(5), uint8(1), uint8(0), uint8(5), uint8(5), uint8(1), false, int8(0), int64(3))
	f.Fuzz(func(t *testing.T, h, w, inC, outC, kh, kw, stride uint8, same bool, inZp int8, dataSeed int64) {
		m, in := buildConvCase(graph.OpDWConv2D, h, w, inC, outC, kh, kw, stride, same, inZp, dataSeed)
		if m == nil {
			t.Skip()
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("fuzz built invalid model: %v", err)
		}
		checkParity(t, m, in)
	})
}

func FuzzDenseParity(f *testing.F) {
	f.Add(uint16(1), uint16(1), int8(0), int64(1))
	f.Add(uint16(127), uint16(33), int8(5), int64(2))
	f.Add(uint16(256), uint16(5), int8(-128), int64(3))
	f.Fuzz(func(t *testing.T, nIn, nOut uint16, inZp int8, dataSeed int64) {
		IN, OUT := 1+int(nIn%512), 1+int(nOut%64)
		rng := rand.New(rand.NewSource(dataSeed))
		m := &graph.Model{Name: "fuzz-fc"}
		m.Tensors = []*graph.Tensor{
			{ID: 0, Name: "in", H: 1, W: 1, C: IN, Scale: 0.1, ZeroPoint: int32(inZp), Bits: 8},
			{ID: 1, Name: "out", H: 1, W: 1, C: OUT, Scale: 0.2, ZeroPoint: -1, Bits: 8},
		}
		op := &graph.Op{
			Kind: graph.OpDense, Name: "fc", Inputs: []int{0}, Output: 1,
			Weights: make([]int8, IN*OUT), WeightBits: 8,
			WeightScales: make([]float32, OUT), Bias: make([]int32, OUT),
			ClampMin: -128, ClampMax: 127,
		}
		for i := range op.Weights {
			op.Weights[i] = int8(rng.Intn(256) - 128)
		}
		for i := 0; i < OUT; i++ {
			op.WeightScales[i] = 0.01 + 0.04*rng.Float32()
			op.Bias[i] = int32(rng.Intn(1024) - 512)
		}
		m.Ops = []*graph.Op{op}
		m.Input, m.Output = 0, 1
		in := make([]int8, IN)
		for i := range in {
			in[i] = int8(rng.Intn(256) - 128)
		}
		checkParity(t, m, in)
	})
}

// FuzzRequantize fuzzes the fixed-point requantization pipeline over
// multiplier/shift edge cases: the Q31 mantissa must represent the real
// multiplier to Q31 precision, and the pure-integer Apply must agree with
// the real-arithmetic product to within the two roundings it performs
// (saturating-doubling-high-mul, then rounding-divide-by-power-of-two).
func FuzzRequantize(f *testing.F) {
	// Edge seeds: exact powers of two (mantissa exactly 0.5), the
	// round-up-to-1.0 overflow path inside QuantizeMultiplier, typical
	// conv effective scales (~1e-3), tiny and large multipliers, and
	// extreme accumulators.
	f.Add(0.5, int32(1))
	f.Add(1.0, int32(-1))
	f.Add(0.9999999999, int32(1<<30))
	f.Add(2.3283064365386963e-10, int32(1<<30)) // 2^-32: deep right shift
	f.Add(0.000728, int32(123456))
	f.Add(7.5, int32(-98765))
	f.Add(0.0, int32(42))
	f.Fuzz(func(t *testing.T, m float64, x int32) {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			t.Skip()
		}
		q := QuantizeMultiplier(m)
		if m <= 0 {
			if q.M0 != 0 || q.Shift != 0 {
				t.Fatalf("non-positive multiplier %v must quantize to zero, got %+v", m, q)
			}
			if got := q.Apply(x); got != 0 {
				t.Fatalf("zero multiplier applied to %d gave %d", x, got)
			}
			return
		}
		// Keep the domain where the scheme is defined: TFLite multipliers
		// are effective scales, far below the saturation regime.
		if m < 1e-15 || m > 1e15 {
			t.Skip()
		}
		if q.M0 < 1<<30 || q.Shift < -62 || q.Shift > 62 {
			t.Fatalf("multiplier %v quantized outside Q31 normal form: %+v", m, q)
		}
		// Mantissa precision: the represented value matches to ~2^-31 rel.
		if rel := math.Abs(q.Float()-m) / m; rel > 1e-9 {
			t.Fatalf("multiplier %v represented as %v (rel err %v)", m, q.Float(), rel)
		}
		// Integer Apply vs real arithmetic, inside the non-saturating range.
		exact := float64(x) * m
		if math.Abs(exact) > float64(math.MaxInt32)/2 {
			t.Skip()
		}
		got := float64(q.Apply(x))
		if math.Abs(got-exact) > 1.0 {
			t.Fatalf("Apply(%d) with m=%v: got %v, want ~%v (err %v)", x, m, got, exact, math.Abs(got-exact))
		}
	})
}
