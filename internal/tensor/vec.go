package tensor

// The two inner loops under the float kernels: Axpy serves the three
// matmuls, MulAdd the depthwise convolution, and both serve autograd's
// BatchNorm. Each has the portable Go body below and, on amd64 with AVX2,
// an assembly body (vec_amd64.s) that is used whenever the CPU has it.
// The assembly rounds the product and then the sum, lane by lane
// (VMULPS, VADDPS), exactly like the Go statement, and never fuses them
// into one FMA rounding, so both bodies return the same bits for every
// input.

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
