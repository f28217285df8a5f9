//go:build !amd64 || purego

package kernels

// No assembly bodies on this build: gemmEngine binds the portable Go
// microkernels of gemm_wide.go for every op, and the stubs below are
// never reached.

const haveSIMD = false

func gemmTile(a *int8, rows, k int, wide *int16, b *int8, e *epilogue, out *int8, n int) {
	panic("kernels: no assembly body on this build")
}

func gemm1x16(a *int8, k int, b *int8, e *epilogue, col int, out *int8, nc int) {
	panic("kernels: no assembly body on this build")
}

func dwPairs9(taps *[9]*int8, w *int16, c int, base *int32, e *epilogue, out *int8, npix, step int) {
	panic("kernels: no assembly body on this build")
}

func addVec(a, b *int8, n int, p *addParams, out *int8) {
	panic("kernels: no assembly body on this build")
}
