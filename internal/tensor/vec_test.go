package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// vecSpecials are the values whose arithmetic the two bodies must agree
// on beyond ordinary numbers: signed zeros, the subnormal range, the
// float32 extremes, infinities and a NaN.
var vecSpecials = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.1, -3.5,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), // largest subnormal
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// vecSeed encodes n elements of (dst, src/a, b) cycling through
// vecSpecials at three different strides, so every length from 0 to 67
// — every tail of the 32- and 8-wide loops — meets every special value.
func vecSeed(n int) []byte {
	raw := make([]byte, 12*n)
	for i := 0; i < n; i++ {
		for w, stride := range []int{1, 3, 5} {
			v := vecSpecials[(i*stride+w)%len(vecSpecials)]
			binary.LittleEndian.PutUint32(raw[12*i+4*w:], math.Float32bits(v))
		}
	}
	return raw
}

// FuzzVecBodies checks that the AVX2 and Go bodies of axpy and mulAdd
// return the same bits. raw holds 12 bytes per element: dst, then src
// (axpy) or a (mulAdd), then b (mulAdd); aBits is axpy's scalar.
func FuzzVecBodies(f *testing.F) {
	for n := 0; n <= 67; n++ {
		f.Add(vecSeed(n), math.Float32bits(vecSpecials[n%len(vecSpecials)]))
	}
	f.Fuzz(func(t *testing.T, raw []byte, aBits uint32) {
		if !haveAVX2 {
			t.Skip("no AVX2 body on this build or CPU")
		}
		n := min(len(raw)/12, 1024)
		word := func(i, w int) float32 {
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[12*i+4*w:]))
		}
		dst, x, y := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range dst {
			dst[i], x[i], y[i] = word(i, 0), word(i, 1), word(i, 2)
		}
		a := math.Float32frombits(aBits)

		goOut, asmOut := append([]float32(nil), dst...), append([]float32(nil), dst...)
		axpyGo(goOut, a, x)
		if n > 0 {
			axpyAVX2(&asmOut[0], &x[0], n, a)
		}
		sameBits(t, "axpy", goOut, asmOut)

		goOut, asmOut = append(goOut[:0], dst...), append(asmOut[:0], dst...)
		mulAddGo(goOut, x, y)
		if n > 0 {
			mulAddAVX2(&asmOut[0], &x[0], &y[0], n)
		}
		sameBits(t, "mulAdd", goOut, asmOut)
	})
}

func sameBits(t *testing.T, op string, want, got []float32) {
	t.Helper()
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s n=%d: element %d assembly %v (%#08x), Go %v (%#08x)", op, len(want), j,
				got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
		}
	}
}

// naiveMatMul is the scalar reference for all three matmuls: out[i,j]
// sums at(i,p)·bt(p,j) for ascending p from zero, skipping zero left
// factors when skipZero (MatMul, TMatMul) and adding every product when
// not (the dot product MatMulT used to be).
func naiveMatMul(m, k, n int, at, bt func(i, p, j int) float32, skipZero bool) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				av := at(i, p, j)
				if skipZero && av == 0 {
					continue
				}
				s += float32(av * bt(i, p, j))
			}
			out[i*n+j] = s
		}
	}
	return out
}

// randSparse is N(0,1) data with about a quarter zeros (the zero-skip
// path) and a few negative zeros.
func randSparse(rng *rand.Rand, shape ...int) *Tensor {
	t := Randn(rng, 1, shape...)
	for i := range t.Data {
		switch r := rng.Intn(16); {
		case r < 4:
			t.Data[i] = 0
		case r == 4:
			t.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	return t
}

// TestMatMulsMatchNaiveOrder: MatMul, MatMulT and TMatMul equal the
// scalar loops in the parent's accumulation order bit for bit, for random
// shapes (including ones large enough to split across goroutines) at
// GOMAXPROCS 1 and 4.
func TestMatMulsMatchNaiveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type shape struct{ m, k, n int }
	shapes := []shape{{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1}, {520, 40, 64}, {130, 64, 67}}
	for range 24 {
		shapes = append(shapes, shape{1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)})
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, s := range shapes {
				m, k, n := s.m, s.k, s.n
				a, b := randSparse(rng, m, k), randSparse(rng, k, n)
				want := naiveMatMul(m, k, n,
					func(i, p, _ int) float32 { return a.Data[i*k+p] },
					func(_, p, j int) float32 { return b.Data[p*n+j] }, true)
				sameBits(t, fmt.Sprintf("MatMul %dx%dx%d", m, k, n), want, MatMul(junk(m, n), a, b).Data)

				bT := randSparse(rng, n, k)
				want = naiveMatMul(m, k, n,
					func(i, p, _ int) float32 { return a.Data[i*k+p] },
					func(_, p, j int) float32 { return bT.Data[j*k+p] }, false)
				sameBits(t, fmt.Sprintf("MatMulT %dx%dx%d", m, k, n), want, MatMulT(junk(m, n), a, bT, junk(k, n)).Data)

				aT := randSparse(rng, k, m)
				want = naiveMatMul(m, k, n,
					func(i, p, _ int) float32 { return aT.Data[p*m+i] },
					func(_, p, j int) float32 { return b.Data[p*n+j] }, true)
				sameBits(t, fmt.Sprintf("TMatMul %dx%dx%d", m, k, n), want, TMatMul(junk(m, n), aT, b).Data)
			}
		})
	}
}

// TestMaxPoolFloorWindows: a window whose values all sit at or below
// -3.4e38 pools to its own maximum and routes its gradient inside
// itself, never to another sample's element 0.
func TestMaxPoolFloorWindows(t *testing.T) {
	inf := float32(math.Inf(-1))
	x := FromSlice([]float32{
		1, 2, 3, 9, // sample 0: ordinary values, max at 3
		inf, inf, -math.MaxFloat32, inf, // sample 1: max -MaxFloat32 at 6
		inf, inf, inf, inf, // sample 2: all -Inf, first tap 8
	}, 3, 2, 2, 1)
	spec := ConvSpec{KH: 2, KW: 2, SH: 2, SW: 2}
	y := junk(3, 1, 1, 1)
	arg := MaxPool2D(y, x, spec)
	if want := []float32{9, -math.MaxFloat32, inf}; y.Data[0] != want[0] || y.Data[1] != want[1] || y.Data[2] != want[2] {
		t.Fatalf("maxpool = %v, want %v", y.Data, want)
	}
	dx := MaxPool2DBackward(junk(x.Shape...), arg, FromSlice([]float32{1, 1, 1}, 3, 1, 1, 1))
	want := []float32{0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("maxpool backward = %v, want %v", dx.Data, want)
		}
	}
}
