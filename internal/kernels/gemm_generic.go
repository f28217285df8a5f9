//go:build !amd64 || purego

package kernels

// No assembly bodies on this build: gemmEngine binds the portable Go
// microkernels of gemm_wide.go for every op, and the stubs below are
// never reached.

const haveSIMD = false

func widen4(a *int8, k int, w *int16) {
	panic("kernels: no assembly body on this build")
}

func gemm4x16w(w *int16, kp int, b *int8, e *epilogue, col int, out *int8, ldc int) {
	panic("kernels: no assembly body on this build")
}

func gemm1x16(a *int8, k int, b *int8, e *epilogue, col int, out *int8) {
	panic("kernels: no assembly body on this build")
}

func dwPairs9(taps *[9]*int8, w *int16, c int, base *int32, e *epilogue, out *int8, npix, step int) {
	panic("kernels: no assembly body on this build")
}
