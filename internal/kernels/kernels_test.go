package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"micronets/internal/graph"
)

func TestQuantizeMultiplierRoundTrip(t *testing.T) {
	for _, m := range []float64{0.00001, 0.004, 0.25, 0.5, 0.9999, 1.0, 1.7, 123.4} {
		q := QuantizeMultiplier(m)
		got := multiplierFloat(q)
		if math.Abs(got-m) > 1e-6*m {
			t.Fatalf("QuantizeMultiplier(%v) represents %v", m, got)
		}
	}
}

func TestQuantizedMultiplierApplyMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		m := math.Exp(rng.Float64()*12 - 10) // 4.5e-5 .. ~7.4
		x := int32(rng.Intn(1<<20) - 1<<19)
		q := QuantizeMultiplier(m)
		got := q.Apply(x)
		want := math.Round(float64(x) * m)
		if math.Abs(float64(got)-want) > 1.01 {
			t.Fatalf("Apply(%d, m=%g) = %d, want ~%g", x, m, got, want)
		}
	}
}

func TestQuickApplyMonotone(t *testing.T) {
	q := QuantizeMultiplier(0.0042)
	f := func(a, b int32) bool {
		if a > b {
			a, b = b, a
		}
		// Avoid overflow range.
		a %= 1 << 24
		b %= 1 << 24
		if a > b {
			a, b = b, a
		}
		return q.Apply(a) <= q.Apply(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// tinyConvModel builds a 1-op conv model with hand-set quantization.
func tinyConvModel() *graph.Model {
	m := &graph.Model{Name: "tiny"}
	m.Tensors = []*graph.Tensor{
		{ID: 0, Name: "in", H: 3, W: 3, C: 1, Scale: 1, ZeroPoint: 0, Bits: 8},
		{ID: 1, Name: "out", H: 3, W: 3, C: 1, Scale: 1, ZeroPoint: 0, Bits: 8},
	}
	m.Ops = []*graph.Op{{
		Kind: graph.OpConv2D, Name: "conv", Inputs: []int{0}, Output: 1,
		KH: 3, KW: 3, SH: 1, SW: 1, PadTop: 1, PadLeft: 1, PadBottom: 1, PadRight: 1,
		Weights:      make([]int8, 9),
		WeightBits:   8,
		WeightScales: []float32{1},
		Bias:         []int32{0},
		ClampMin:     -128, ClampMax: 127,
	}}
	m.Input, m.Output = 0, 1
	return m
}

func TestConv2DIdentityKernel(t *testing.T) {
	m := tinyConvModel()
	m.Ops[0].Weights[4] = 1 // center tap: identity convolution
	in := []int8{1, 2, 3, 4, 5, 6, 7, 8, 9}
	out := make([]int8, 9)
	ctx := PrepareConv(m, m.Ops[0])
	Conv2D(m, m.Ops[0], ctx, in, out)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("identity conv: out[%d]=%d want %d", i, out[i], in[i])
		}
	}
}

func TestConv2DBiasAndClamp(t *testing.T) {
	m := tinyConvModel()
	m.Ops[0].Bias[0] = 100
	m.Ops[0].ClampMax = 50
	in := make([]int8, 9)
	out := make([]int8, 9)
	ctx := PrepareConv(m, m.Ops[0])
	Conv2D(m, m.Ops[0], ctx, in, out)
	for i := range out {
		if out[i] != 50 {
			t.Fatalf("clamped output = %d, want 50", out[i])
		}
	}
}

func TestConv2DZeroPointHandling(t *testing.T) {
	// With input zero point zp, feeding the all-zp input must produce
	// exactly the bias-only output.
	m := tinyConvModel()
	m.Tensors[0].ZeroPoint = -128
	m.Ops[0].Weights = []int8{1, 2, 3, 4, 5, 6, 7, 8, 9}
	m.Ops[0].Bias[0] = 7
	in := make([]int8, 9)
	for i := range in {
		in[i] = -128 // quantized zero
	}
	out := make([]int8, 9)
	ctx := PrepareConv(m, m.Ops[0])
	Conv2D(m, m.Ops[0], ctx, in, out)
	for i := range out {
		if out[i] != 7 {
			t.Fatalf("zero-input conv out=%d, want bias 7", out[i])
		}
	}
}

func TestDenseMatchesManual(t *testing.T) {
	m := &graph.Model{Name: "fc"}
	m.Tensors = []*graph.Tensor{
		{ID: 0, Name: "in", H: 1, W: 1, C: 3, Scale: 0.5, ZeroPoint: 0, Bits: 8},
		{ID: 1, Name: "out", H: 1, W: 1, C: 2, Scale: 1, ZeroPoint: 0, Bits: 8},
	}
	m.Ops = []*graph.Op{{
		Kind: graph.OpDense, Name: "fc", Inputs: []int{0}, Output: 1,
		Weights:      []int8{1, 0, 0, 1, 1, 1}, // [in=3][out=2]
		WeightBits:   8,
		WeightScales: []float32{1, 1},
		Bias:         []int32{0, 2},
		ClampMin:     -128, ClampMax: 127,
	}}
	m.Input, m.Output = 0, 1
	in := []int8{2, 4, 6}
	out := make([]int8, 2)
	ctx := PrepareConv(m, m.Ops[0])
	Dense(m, m.Ops[0], ctx, in, out)
	// acc0 = 2*1+4*0+6*1 = 8; real = 8*0.5*1/1 = 4
	// acc1 = 2*0+4*1+6*1+2 = 12; real = 6
	if out[0] != 4 || out[1] != 6 {
		t.Fatalf("dense out = %v, want [4 6]", out)
	}
}

func TestAvgPoolRounding(t *testing.T) {
	m := &graph.Model{Name: "pool"}
	m.Tensors = []*graph.Tensor{
		{ID: 0, Name: "in", H: 2, W: 2, C: 1, Scale: 1, ZeroPoint: 0, Bits: 8},
		{ID: 1, Name: "out", H: 1, W: 1, C: 1, Scale: 1, ZeroPoint: 0, Bits: 8},
	}
	m.Ops = []*graph.Op{{
		Kind: graph.OpAvgPool, Name: "pool", Inputs: []int{0}, Output: 1,
		KH: 2, KW: 2, SH: 2, SW: 2, ClampMin: -128, ClampMax: 127,
	}}
	in := []int8{1, 2, 2, 2} // avg 1.75 -> rounds to 2
	out := make([]int8, 1)
	AvgPool(m, m.Ops[0], in, out)
	if out[0] != 2 {
		t.Fatalf("avgpool = %d, want 2", out[0])
	}
	in = []int8{-1, -2, -2, -2} // avg -1.75 -> -2
	AvgPool(m, m.Ops[0], in, out)
	if out[0] != -2 {
		t.Fatalf("avgpool = %d, want -2", out[0])
	}
}

func TestSoftmaxDistribution(t *testing.T) {
	m := &graph.Model{Name: "sm"}
	m.Tensors = []*graph.Tensor{
		{ID: 0, Name: "in", H: 1, W: 1, C: 4, Scale: 0.1, ZeroPoint: 0, Bits: 8},
		{ID: 1, Name: "out", H: 1, W: 1, C: 4, Scale: 1.0 / 256, ZeroPoint: -128, Bits: 8},
	}
	m.Ops = []*graph.Op{{
		Kind: graph.OpSoftmax, Name: "sm", Inputs: []int{0}, Output: 1,
		ClampMin: -128, ClampMax: 127,
	}}
	out := runOp(t, Default, m, []int8{10, 20, 5, 0})
	// Probabilities sum to ~1 (within quantization), argmax preserved.
	var sum float64
	best := 0
	for i, q := range out {
		p := float64(int32(q)+128) / 256
		sum += p
		if out[i] > out[best] {
			best = i
		}
	}
	if math.Abs(sum-1) > 0.05 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if best != 1 {
		t.Fatalf("softmax argmax = %d, want 1", best)
	}
}

func TestAddRescales(t *testing.T) {
	m := &graph.Model{Name: "add"}
	m.Tensors = []*graph.Tensor{
		{ID: 0, Name: "a", H: 1, W: 1, C: 2, Scale: 0.5, ZeroPoint: 0, Bits: 8},
		{ID: 1, Name: "b", H: 1, W: 1, C: 2, Scale: 0.25, ZeroPoint: 0, Bits: 8},
		{ID: 2, Name: "out", H: 1, W: 1, C: 2, Scale: 1, ZeroPoint: 0, Bits: 8},
	}
	m.Ops = []*graph.Op{{
		Kind: graph.OpAdd, Name: "add", Inputs: []int{0, 1}, Output: 2,
		ClampMin: -128, ClampMax: 127,
	}}
	a := []int8{4, 8} // real: 2, 4
	b := []int8{8, 4} // real: 2, 1
	out := make([]int8, 2)
	Add(m, m.Ops[0], a, b, out)
	if out[0] != 4 || out[1] != 5 { // real 4 and 5 at scale 1
		t.Fatalf("add = %v, want [4 5]", out)
	}
}

// BenchmarkForkJoin measures one Parallel.For hand-off with no work in
// it, workers warm — the floor of the cost gemm.go's forkMACs constants
// weigh a chunk against before splitting an op.
func BenchmarkForkJoin(b *testing.B) {
	var p Parallel
	fn := func(chunk, lo, hi int) {}
	for i := 0; i < b.N; i++ {
		p.For(Workers(), 1, fn)
	}
}

// multiplierFloat returns the real value a fixed-point multiplier
// represents.
func multiplierFloat(q QuantizedMultiplier) float64 {
	return float64(q.M0) / float64(int64(1)<<31) * math.Pow(2, float64(q.Shift))
}
