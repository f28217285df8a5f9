package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestNewAndShape(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	if a.Dim(0) != 2 || a.Dim(-1) != 4 {
		t.Fatalf("Dim lookup wrong: %d %d", a.Dim(0), a.Dim(-1))
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7.5, 2, 1)
	if a.At(2, 1) != 7.5 {
		t.Fatalf("At(2,1) = %v", a.At(2, 1))
	}
	if a.Data[2*4+1] != 7.5 {
		t.Fatal("row-major offset wrong")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeInferred(t *testing.T) {
	a := New(2, 3, 4)
	b := a.Reshape(6, -1)
	if b.Shape[0] != 6 || b.Shape[1] != 4 {
		t.Fatalf("Reshape inferred %v", b.Shape)
	}
	b.Data[0] = 9
	if a.Data[0] != 9 {
		t.Fatal("Reshape must share data")
	}
}

func TestReshapeBadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for impossible reshape")
		}
	}()
	New(2, 3).Reshape(4, -1)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	if got := Add(a, b).Data[3]; got != 12 {
		t.Fatalf("Add = %v", got)
	}
	if got := Mul(a, b).Data[1]; got != 12 {
		t.Fatalf("Mul = %v", got)
	}
	if got := Scale(a, 2).Data[2]; got != 6 {
		t.Fatalf("Scale = %v", got)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{3, -1, 4, 1}, 4)
	if Sum(a) != 7 {
		t.Fatalf("Sum = %v", Sum(a))
	}
	if Mean(a) != 1.75 {
		t.Fatalf("Mean = %v", Mean(a))
	}
	if Max(a) != 4 || Min(a) != -1 {
		t.Fatalf("Max/Min = %v/%v", Max(a), Min(a))
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 5)
	b := Randn(rng, 1, 5, 3)
	base := MatMul(a, b)
	viaT := MatMulT(a, Transpose2D(b))
	viaTM := TMatMul(Transpose2D(a), b)
	for i := range base.Data {
		if !almostEq(base.Data[i], viaT.Data[i], 1e-4) {
			t.Fatalf("MatMulT disagrees at %d: %v vs %v", i, base.Data[i], viaT.Data[i])
		}
		if !almostEq(base.Data[i], viaTM.Data[i], 1e-4) {
			t.Fatalf("TMatMul disagrees at %d: %v vs %v", i, base.Data[i], viaTM.Data[i])
		}
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := Transpose2D(a)
	if b.Shape[0] != 3 || b.Shape[1] != 2 {
		t.Fatalf("shape %v", b.Shape)
	}
	if b.At(2, 1) != 6 || b.At(0, 1) != 4 {
		t.Fatal("transpose values wrong")
	}
}

// naiveConv2D is an independent direct implementation used to validate the
// im2col fast path.
func naiveConv2D(x, wgt *Tensor, spec ConvSpec) *Tensor {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC := wgt.Shape[3]
	oh, ow := spec.OutSize(h, w)
	y := New(n, oh, ow, outC)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for oc := 0; oc < outC; oc++ {
					var s float32
					for ky := 0; ky < spec.KH; ky++ {
						for kx := 0; kx < spec.KW; kx++ {
							iy := oy*spec.SH + ky - spec.PadTop
							ix := ox*spec.SW + kx - spec.PadLeft
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							for ic := 0; ic < c; ic++ {
								s += x.At(b, iy, ix, ic) * wgt.At(ky, kx, ic, oc)
							}
						}
					}
					y.Set(s, b, oy, ox, oc)
				}
			}
		}
	}
	return y
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := Randn(rng, 1, 2, 5, 6, 3)
	wgt := Randn(rng, 1, 3, 3, 3, 4)
	spec := Same(3, 3, 2, 2, 5, 6)
	got := Conv2D(x, wgt, spec)
	want := naiveConv2D(x, wgt, spec)
	if !SameShape(got, want) {
		t.Fatalf("shape %v vs %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-3) {
			t.Fatalf("conv mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestConv2DValidPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := Randn(rng, 1, 1, 4, 4, 2)
	wgt := Randn(rng, 1, 3, 3, 2, 1)
	spec := ConvSpec{KH: 3, KW: 3, SH: 1, SW: 1}
	y := Conv2D(x, wgt, spec)
	if y.Shape[1] != 2 || y.Shape[2] != 2 {
		t.Fatalf("valid conv output shape %v", y.Shape)
	}
}

func TestDepthwiseConvMatchesPerChannelConv(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := Randn(rng, 1, 1, 5, 5, 3)
	dwW := Randn(rng, 1, 3, 3, 3)
	spec := Same(3, 3, 1, 1, 5, 5)
	got := DepthwiseConv2D(x, dwW, spec)
	// Build an equivalent grouped standard conv per channel.
	for ch := 0; ch < 3; ch++ {
		xc := New(1, 5, 5, 1)
		for i := 0; i < 25; i++ {
			xc.Data[i] = x.Data[i*3+ch]
		}
		wc := New(3, 3, 1, 1)
		for i := 0; i < 9; i++ {
			wc.Data[i] = dwW.Data[i*3+ch]
		}
		yc := Conv2D(xc, wc, spec)
		for i := 0; i < 25; i++ {
			if !almostEq(yc.Data[i], got.Data[i*3+ch], 1e-4) {
				t.Fatalf("dw ch %d mismatch at %d: %v vs %v", ch, i, yc.Data[i], got.Data[i*3+ch])
			}
		}
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property that
	// makes the conv backward pass correct.
	rng := rand.New(rand.NewSource(5))
	x := Randn(rng, 1, 1, 4, 5, 2)
	spec := Same(3, 3, 2, 2, 4, 5)
	cx := Im2Col(x, spec)
	y := Randn(rng, 1, cx.Shape[0], cx.Shape[1])
	lhs := Dot(cx, y)
	rhs := Dot(x, Col2Im(y, spec, 1, 4, 5, 2))
	if !almostEq(lhs, rhs, 1e-2) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestAvgPoolValues(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2, 1)
	spec := ConvSpec{KH: 2, KW: 2, SH: 2, SW: 2}
	y := AvgPool2D(x, spec)
	if y.Len() != 1 || y.Data[0] != 2.5 {
		t.Fatalf("avgpool = %v", y.Data)
	}
}

func TestMaxPoolAndBackward(t *testing.T) {
	x := FromSlice([]float32{1, 5, 3, 4}, 1, 2, 2, 1)
	spec := ConvSpec{KH: 2, KW: 2, SH: 2, SW: 2}
	y, arg := MaxPool2D(x, spec)
	if y.Data[0] != 5 {
		t.Fatalf("maxpool = %v", y.Data[0])
	}
	dy := FromSlice([]float32{2}, 1, 1, 1, 1)
	dx := MaxPool2DBackward(x.Shape, arg, dy)
	if dx.Data[1] != 2 || dx.Data[0] != 0 {
		t.Fatalf("maxpool backward = %v", dx.Data)
	}
}

func TestSamePaddingMatchesTF(t *testing.T) {
	cases := []struct{ in, k, s, outWant int }{
		{49, 3, 2, 25},
		{10, 3, 2, 5},
		{32, 3, 1, 32},
		{5, 3, 2, 3},
	}
	for _, c := range cases {
		spec := Same(c.k, c.k, c.s, c.s, c.in, c.in)
		oh, _ := spec.OutSize(c.in, c.in)
		if oh != c.outWant {
			t.Fatalf("SAME out for in=%d k=%d s=%d: got %d want %d", c.in, c.k, c.s, oh, c.outWant)
		}
	}
}

func TestBilinearResizeConstant(t *testing.T) {
	x := New(1, 8, 8, 2).Fill(3)
	y := BilinearResize(x, 4, 4)
	for _, v := range y.Data {
		if !almostEq(v, 3, 1e-5) {
			t.Fatalf("constant image must stay constant, got %v", v)
		}
	}
}

func TestBilinearResizePreservesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := Randn(rng, 1, 1, 16, 16, 1)
	y := BilinearResize(x, 8, 8)
	if !almostEq(Mean(x), Mean(y), 0.08) {
		t.Fatalf("mean shifted: %v vs %v", Mean(x), Mean(y))
	}
}

func TestQuickAddCommutes(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			vals = []float32{0}
		}
		a := FromSlice(append([]float32(nil), vals...), len(vals))
		b := FromSlice(reverse(vals), len(vals))
		ab, ba := Add(a, b), Add(b, a)
		for i := range ab.Data {
			x, y := ab.Data[i], ba.Data[i]
			if x != y && !(math.IsNaN(float64(x)) && math.IsNaN(float64(y))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func reverse(v []float32) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[len(v)-1-i] = x
	}
	return out
}

func TestQuickScaleLinearity(t *testing.T) {
	f := func(raw []float32, s float32) bool {
		if len(raw) == 0 || s != s || s > 1e18 || s < -1e18 {
			return true
		}
		for _, v := range raw {
			if v != v || v > 1e18 || v < -1e18 {
				return true
			}
		}
		a := FromSlice(append([]float32(nil), raw...), len(raw))
		left := Scale(Add(a, a), s)
		right := Add(Scale(a, s), Scale(a, s))
		for i := range left.Data {
			if !almostEq(left.Data[i], right.Data[i], 1e-2+abs32(left.Data[i])*1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
