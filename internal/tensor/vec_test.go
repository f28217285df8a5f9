package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"testing"
)

// vecSpecials are the values whose arithmetic the two bodies must agree
// on beyond ordinary numbers: signed zeros, the subnormal range, the
// float32 extremes, infinities and two NaNs with different payloads (so
// the operand order of each instruction shows).
var vecSpecials = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.1, -3.5,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), // largest subnormal
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(0xffc0abcd), // negative quiet NaN with a payload
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

// panelSeed encodes the values of a panel call, cycling through
// vecSpecials at stride `stride`: with 64 columns every b row holds each
// special, so zero, −0 and NaN left factors all meet Inf and NaN in b.
func panelSeed(n, stride int) []byte {
	raw := make([]byte, 4*n)
	for i := range n {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(vecSpecials[(i*stride)%len(vecSpecials)]))
	}
	return raw
}

// FuzzPanelBodies checks that the AVX2 and Go bodies of panel return the
// same bits on a full 64-column strip. The floats of raw, repeated as
// often as needed, fill out (which the first call must ignore), then a
// (k steps at aStride), then b (k rows at bStride 64+pad). Like TMatMul,
// each body first sums steps [0, split) from zero and then accumulates
// steps [split, k) onto that.
func FuzzPanelBodies(f *testing.F) {
	for i, stride := range []int{1, 3, 5, 7} {
		f.Add(panelSeed(len(vecSpecials)*(i+1), stride), uint8(i*9), uint8(i*4), uint8(1+i), uint8(i))
	}
	f.Add(panelSeed(64*3+5, 1), uint8(200), uint8(60), uint8(1), uint8(0))
	// Laid out whole (aStride 1, bStride 64, no repeat): zero and −0 left
	// factors over all-Inf and NaN/−Inf rows, between finite steps, so
	// every lane's exact answer is finite; and a NaN left factor over a
	// row of the other NaN payload.
	negZero, nan2 := vecSpecials[1], vecSpecials[len(vecSpecials)-1]
	inf := float32(math.Inf(1))
	f.Add(panelCase([]float32{1, 0, negZero, 2, 0},
		[64]float32{}, fill64(inf), fill64(float32(math.NaN()), -inf), fill64(3), fill64(nan2, inf)),
		uint8(5), uint8(2), uint8(0), uint8(0))
	f.Add(panelCase([]float32{float32(math.NaN())}, fill64(nan2, 1, inf)), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, k, split, aStride, pad uint8) {
		if !haveAVX2 {
			t.Skip("no AVX2 body on this build or CPU")
		}
		kk, as, bs := int(k), 1+int(aStride%8), panelWidth+int(pad%8)
		sp := min(int(split), kk)
		words := len(raw) / 4
		vals := make([]float32, panelWidth+kk*as+kk*bs)
		for i := range vals {
			if words > 0 {
				vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(i%words):]))
			}
		}
		out0, a, b := vals[:panelWidth], vals[panelWidth:panelWidth+kk*as], vals[panelWidth+kk*as:]
		run := func(body func(out, a []float32, aStride int, b []float32, bStride, k int, accumulate bool)) []float32 {
			out := append([]float32(nil), out0...)
			body(out, a, as, b, bs, sp, false)
			if sp < kk {
				body(out, a[sp*as:], as, b[sp*bs:], bs, kk-sp, true)
			}
			return out
		}
		asm := func(out, a []float32, aStride int, b []float32, bStride, k int, accumulate bool) {
			if k == 0 {
				clear(out)
				return
			}
			panelAVX2(&out[0], &a[0], aStride, &b[0], bStride, k, accumulate)
		}
		sameBits(t, fmt.Sprintf("panel k=%d split=%d aStride=%d bStride=%d", kk, sp, as, bs),
			run(panelGo), run(asm))
	})
}

// panelCase lays out one FuzzPanelBodies input exactly: a zero out, the
// left factors a, then one 64-wide b row per factor.
func panelCase(a []float32, rows ...[64]float32) []byte {
	vals := append(make([]float32, panelWidth), a...)
	for _, r := range rows {
		vals = append(vals, r[:]...)
	}
	raw := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

// fill64 repeats vs across a 64-wide row.
func fill64(vs ...float32) (r [64]float32) {
	for j := range r {
		r[j] = vs[j%len(vs)]
	}
	return r
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
	shapes := []shape{{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1}, {520, 40, 64}, {1100, 40, 64}, {130, 64, 67}}
	// The panel's edges: one output row whose width ends just before, at
	// and after a 64-column strip, and TMatMul reductions around its
	// 64-row block (n = 64) and two and four blocks.
	for _, n := range []int{63, 64, 65, 128, 129} {
		shapes = append(shapes, shape{1, 37, n})
	}
	for _, k := range []int{63, 64, 65, 127, 128, 129, 257} {
		shapes = append(shapes, shape{5, k, 64}, shape{3, k, 65})
	}
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

// TestPanelFrameHoldsChunk reads vec_amd64.s: panelAVX2 keeps
// PANEL_CHUNK float32 factors and then PANEL_CHUNK b-row addresses on its
// frame, and the frame size on the TEXT line is a literal the assembler
// cannot derive, so a larger PANEL_CHUNK would write past the frame
// unless the literal grows with it.
func TestPanelFrameHoldsChunk(t *testing.T) {
	src, err := os.ReadFile("vec_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	chunk := regexp.MustCompile(`(?m)^#define PANEL_CHUNK (\d+)\s*$`).FindSubmatch(src)
	frame := regexp.MustCompile(`(?m)^TEXT ·panelAVX2\(SB\), NOSPLIT, \$(\d+)-\d+\s*$`).FindSubmatch(src)
	if chunk == nil || frame == nil {
		t.Fatalf("vec_amd64.s: found PANEL_CHUNK %q and panelAVX2 frame %q, want both", chunk, frame)
	}
	n, _ := strconv.Atoi(string(chunk[1]))
	f, _ := strconv.Atoi(string(frame[1]))
	if need := n*4 + n*8; f < need {
		t.Fatalf("panelAVX2 frame is %d bytes; PANEL_CHUNK %d needs %d·4 + %d·8 = %d", f, n, n, n, need)
	}
}
