package autograd

import (
	"math"
	"testing"

	"micronets/internal/tensor"
)

// onPoisonedTape returns f run on a tape: each call first releases the
// previous call's tensors, NaN-filled (see poison_test.go), then passes
// every input through an identity Add with a tape constant, so all of f's
// ops draw from the tape. It runs f and its backward pass once before
// returning, so that from the first call on every tensor f gets is a
// recycled one.
func onPoisonedTape(f func([]*Var) *Var, inputs []*tensor.Tensor) func([]*Var) *Var {
	tp := NewTape()
	taped := func(vs []*Var) *Var {
		tp.Release()
		in := make([]*Var, len(vs))
		for i, v := range vs {
			in[i] = Add(v, tp.Constant(tensor.New(v.Value.Shape...)))
		}
		return f(in)
	}
	warm := make([]*Var, len(inputs))
	for i, x := range inputs {
		warm[i] = Param(x)
	}
	Backward(taped(warm))
	return taped
}

// TestGradSharedNodes: a node with two consumers gets the sum of both
// gradients, and an Add never hands its two parents one buffer. The
// order matters: a and b both feed the Add, whose backward runs first;
// a's other consumer then adds into a's gradient, and only after that
// does b's backward read b's — which would have moved with a's had the
// Add let them share its own.
func TestGradSharedNodes(t *testing.T) {
	r := rng(30)
	checkOp(t, "shared", func(v []*Var) *Var {
		a, b := Square(v[0]), ReLU(v[1])
		first := Mean(Mul(b, v[2]))
		rest := Add(Mean(Mul(a, a)), Mean(Square(Add(a, b))))
		return Add(first, rest)
	}, []*tensor.Tensor{tensor.Randn(r, 1, 2, 3), tensor.Randn(r, 1, 2, 3), tensor.Randn(r, 1, 2, 3)})
}

// TestPassedOnGradsStayOwn: an op that passes its gradient on to its
// parent (Reshape, AddScalar, MaxN, BiasAdd's input) still holds its own
// gradient after Backward, not its parent's total. The parent's other
// consumer sits in the loss's first term, so its backward runs after the
// pass-on op's and would write through a shared buffer.
func TestPassedOnGradsStayOwn(t *testing.T) {
	for _, c := range []struct {
		name   string
		passOn func(p *Var) *Var
	}{
		{"reshape", func(p *Var) *Var { return Reshape(p, -1, 1) }},
		{"addscalar", func(p *Var) *Var { return AddScalar(p, 1) }},
		{"maxn", func(p *Var) *Var { return MaxN(p) }},
		{"biasadd", func(p *Var) *Var { return BiasAdd(p, Param(tensor.New(1))) }},
	} {
		x := Param(tensor.FromSlice([]float32{3}, 1))
		p := Scale(x, 1)
		out := c.passOn(p)
		Backward(Add(Sum(Scale(p, 5)), Sum(Scale(out, 2))))
		if g := out.Grad.Data[0]; g != 2 {
			t.Errorf("%s: output gradient %v, want 2", c.name, g)
		}
		if g := x.Grad.Data[0]; g != 7 {
			t.Errorf("%s: input gradient %v, want 7", c.name, g)
		}
	}
}

// TestTapeRecyclesByShape: Release hands a step's tensors back, and the
// next step with the same shapes borrows exactly those tensors, none new.
func TestTapeRecyclesByShape(t *testing.T) {
	tp := NewTape()
	w := Param(tensor.New(3, 4))
	step := func() map[*tensor.Tensor]bool {
		x := tp.Constant(tensor.New(2, 3))
		Backward(Mean(ReLU(MatMul(x, w))))
		lent := map[*tensor.Tensor]bool{}
		for _, l := range tp.live {
			lent[l] = true
		}
		tp.Release()
		return lent
	}
	first, second := step(), step()
	if len(first) == 0 || len(second) != len(first) {
		t.Fatalf("the steps borrowed %d and %d tensors", len(first), len(second))
	}
	for l := range second {
		if !first[l] {
			t.Fatalf("the second step borrowed a new %v tensor", l.Shape)
		}
	}
	if w.Grad == nil || first[w.Grad] {
		t.Fatal("a leaf's gradient must come from the heap, not the tape")
	}
}

// TestPositiveBits: ReLU's branch-free select agrees with x > 0 on every
// class of float32, signed zeros, subnormals, infinities and NaNs
// included.
func TestPositiveBits(t *testing.T) {
	const v = 1.5
	vals := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		1, -1, math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(0x7fffffff), math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001),
	}
	for _, x := range vals {
		want := uint32(0)
		if x > 0 {
			want = math.Float32bits(v)
		}
		if got := positiveBits(x, v); got != want {
			t.Errorf("positiveBits(%v [%08x]) = %08x, want %08x", x, math.Float32bits(x), got, want)
		}
	}
}

// TestBatchNormStatsOutliveRelease: the batch statistics BatchNorm
// returns come from the heap, so the tape's Release (which NaN-fills what
// it takes back in this test binary) leaves them intact.
func TestBatchNormStatsOutliveRelease(t *testing.T) {
	tp := NewTape()
	x := tp.Constant(tensor.Randn(rng(31), 1, 4, 3))
	_, stats := BatchNorm(x, Param(tensor.FromSlice([]float32{1, 1, 1}, 3)), Param(tensor.New(3)), 1e-5, nil)
	mean, variance := stats.Mean.Clone(), stats.Var.Clone()
	tp.Release()
	for j := range mean.Data {
		if stats.Mean.Data[j] != mean.Data[j] || stats.Var.Data[j] != variance.Data[j] {
			t.Fatalf("channel %d: stats %v/%v after Release, %v/%v before",
				j, stats.Mean.Data[j], stats.Var.Data[j], mean.Data[j], variance.Data[j])
		}
	}
}
