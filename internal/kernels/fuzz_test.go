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
		checkVectorRequant(t, m, x)
		checkRequantFallback(t, m, x)
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
		if rel := math.Abs(multiplierFloat(q)-m) / m; rel > 1e-9 {
			t.Fatalf("multiplier %v represented as %v (rel err %v)", m, multiplierFloat(q), rel)
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

// checkVectorRequant is FuzzRequantize's vector leg: sixteen lanes of
// (acc, bias, M0, right shift) derived from the fuzzed pair, with a
// random output zero point and clamp, go through the assembly epilogue
// (gemm1x16 with k = 0 is exactly bias → requantize → store) and must
// equal Apply + clamp32 + int8 lane for lane. Shifts stay inside
// vectorShift's domain here; checkRequantFallback covers the rest.
func checkVectorRequant(t *testing.T, m float64, x int32) {
	if !haveSIMD {
		return
	}
	rng := rand.New(rand.NewSource(int64(math.Float64bits(m)) ^ int64(x)<<17))
	q := QuantizeMultiplier(math.Abs(m))
	var acc, bias, m0, rshift [gemmNR]int32
	for i := range acc {
		switch i % 4 {
		case 0:
			acc[i], m0[i] = x, q.M0
		case 1:
			acc[i], m0[i] = -x, q.M0^int32(rng.Intn(1<<12))
		case 2:
			acc[i], m0[i] = x+int32(i), rng.Int31()
		default:
			acc[i], m0[i] = []int32{math.MinInt32, math.MaxInt32, 0, -1}[rng.Intn(4)], []int32{0, 1, 1 << 30, math.MaxInt32}[rng.Intn(4)]
		}
		bias[i] = int32(rng.Uint32()) >> uint(rng.Intn(32))
		rshift[i] = int32(rng.Intn(31))
		if i%4 == 0 && vectorShift(int32(-q.Shift)) {
			rshift[i] = int32(-q.Shift)
		}
	}
	lo := int32(rng.Intn(256) - 128)
	e := &epilogue{
		bias: &bias[0], m0: &m0[0], rshift: &rshift[0],
		outZp: int32(rng.Intn(256) - 128), lo: lo, hi: lo + int32(rng.Intn(int(128-lo))),
	}
	if rng.Intn(8) == 0 {
		e.lo, e.hi = -1000, 1000 // outside int8: the store must truncate like int8()
	}
	var in, w [2 * gemmNR]int8
	var got [gemmNR]int8
	for i := range acc {
		bias[i] += acc[i] // the accumulator a real op would have added
	}
	gemm1x16(&in[0], 0, &w[0], e, 0, &got[0])
	for i := range got {
		mult := QuantizedMultiplier{M0: m0[i], Shift: -int(rshift[i])}
		want := int8(clamp32(mult.Apply(bias[i])+e.outZp, e.lo, e.hi))
		if got[i] != want {
			t.Fatalf("lane %d: vector requant(%d, %+v, zp %d, clamp [%d,%d]) = %d, Apply gives %d",
				i, bias[i], mult, e.outZp, e.lo, e.hi, got[i], want)
		}
	}
}

// checkRequantFallback drives multipliers the vector form does not cover
// — left shifts, right shifts of 31..62, a zero mantissa — through a
// whole bound op: a 1-input Dense whose accumulators are its biases and
// whose per-channel scales are the fuzzed multiplier times powers of two.
// Binding must notice them and keep scalar Apply, so every body still
// matches Reference.
func checkRequantFallback(t *testing.T, m float64, x int32) {
	const n = 24
	rng := rand.New(rand.NewSource(int64(math.Float64bits(m)) ^ int64(x)))
	model := &graph.Model{Name: "fuzz-requant"}
	model.Tensors = []*graph.Tensor{
		{ID: 0, Name: "in", H: 1, W: 1, C: 1, Scale: 1, Bits: 8},
		{ID: 1, Name: "out", H: 1, W: 1, C: n, Scale: 1, ZeroPoint: int32(rng.Intn(256) - 128), Bits: 8},
	}
	op := &graph.Op{
		Kind: graph.OpDense, Name: "fc", Inputs: []int{0}, Output: 1,
		Weights: make([]int8, n), WeightBits: 8,
		WeightScales: make([]float32, n), Bias: make([]int32, n),
		ClampMin: int32(-128 + rng.Intn(64)), ClampMax: int32(127 - rng.Intn(64)),
	}
	for i := 0; i < n; i++ {
		// 2^(±70) spans every shift class; float32 overflow/underflow
		// lands on the zero-mantissa and saturated cases.
		op.WeightScales[i] = float32(math.Abs(m) * math.Pow(2, float64(rng.Intn(141)-70)))
		if math.IsInf(float64(op.WeightScales[i]), 0) || i == n-1 {
			op.WeightScales[i] = 0
		}
		op.Weights[i] = int8(rng.Intn(256) - 128)
		op.Bias[i] = x >> uint(rng.Intn(32))
	}
	model.Ops = []*graph.Op{op}
	model.Input, model.Output = 0, 1
	checkParity(t, model, []int8{int8(rng.Intn(256) - 128)})
}
