package tensor

// The inner loops under the float kernels: panel serves the three
// matmuls (through axpy for a strip narrower than panelWidth on AVX2),
// MulAdd the depthwise convolution, and Axpy and MulAdd autograd's
// BatchNorm. Each has a portable Go body and, on amd64 with AVX2, an
// assembly body (vec_amd64.s) that is used whenever the CPU has it.
// The assembly rounds the product and then the sum, lane by lane
// (VMULPS, VADDPS), exactly like the Go statement, and never fuses them
// into one FMA rounding, so both bodies return the same bits for every
// input.

// panelWidth is the number of output columns one panel call keeps in
// registers: eight 8-float AVX2 accumulators.
const panelWidth = 64

// panel computes one strip of at most panelWidth output columns:
//
//	out[j] = out₀[j] + Σ_{p<k, a[p·aStride] ≠ 0} b[p·bStride+j]·a[p·aStride]
//
// for ascending p, where out₀ is out's own contents when accumulate and
// +0 otherwise. The sum stays in registers (or a local array) for the
// whole reduction and is stored once; a zero left factor, +0 or −0, adds
// nothing, while a NaN one is multiplied in like any other.
func panel(out, a []float32, aStride int, b []float32, bStride, k int, accumulate bool) {
	if k == 0 {
		if !accumulate {
			clear(out)
		}
		return
	}
	// The last elements either body reads; checking them here keeps the
	// assembly inside both slices.
	_ = a[(k-1)*aStride]
	_ = b[(k-1)*bStride+len(out)-1]
	if !haveAVX2 {
		panelGo(out, a, aStride, b, bStride, k, accumulate)
		return
	}
	if len(out) == panelWidth {
		panelAVX2(&out[0], &a[0], aStride, &b[0], bStride, k, accumulate)
		return
	}
	// A narrower strip (a row's last n % 64 columns) runs as one axpy
	// pass over out per nonzero factor, which keeps it vectorised where
	// panelGo would not be; the sums and their rounding are panelGo's.
	if !accumulate {
		clear(out)
	}
	for p := range k {
		if av := a[p*aStride]; av != 0 {
			axpyAVX2(&out[0], &b[p*bStride], len(out), av)
		}
	}
}

// panels runs panel over every strip of the output row out.
func panels(out, a []float32, aStride int, b []float32, bStride, k int, accumulate bool) {
	for j := 0; j < len(out); j += panelWidth {
		panel(out[j:min(j+panelWidth, len(out))], a, aStride, b[j:], bStride, k, accumulate)
	}
}

// Axpy computes dst[j] += a·src[j] for j < len(dst).
func Axpy(dst []float32, a float32, src []float32) {
	if len(dst) == 0 {
		return
	}
	src = src[:len(dst)]
	if haveAVX2 {
		axpyAVX2(&dst[0], &src[0], len(dst), a)
		return
	}
	axpyGo(dst, a, src)
}

// MulAdd computes dst[j] += a[j]·b[j] for j < len(dst).
func MulAdd(dst, a, b []float32) {
	if len(dst) == 0 {
		return
	}
	a, b = a[:len(dst)], b[:len(dst)]
	if haveAVX2 {
		mulAddAVX2(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	mulAddGo(dst, a, b)
}

// The Go bodies. The float32 conversion rounds the product on its own,
// which the Go spec guarantees keeps it out of a fused multiply-add on
// every target, so these bodies also match the assembly off amd64.

// panelGo is panel's Go body for len(out) ≤ panelWidth: the only one off
// amd64 and under purego.
func panelGo(out, a []float32, aStride int, b []float32, bStride, k int, accumulate bool) {
	var buf [panelWidth]float32
	acc := buf[:len(out)]
	if accumulate {
		copy(acc, out)
	}
	for p := range k {
		if av := a[p*aStride]; av != 0 {
			brow := b[p*bStride:][:len(acc)]
			for j, bv := range brow {
				acc[j] += float32(bv * av)
			}
		}
	}
	copy(out, acc)
}

func axpyGo(dst []float32, a float32, src []float32) {
	src = src[:len(dst)]
	for j := range dst {
		dst[j] += float32(src[j] * a)
	}
}

func mulAddGo(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for j := range dst {
		dst[j] += float32(a[j] * b[j])
	}
}
