//go:build !amd64 || purego

package tensor

// No assembly bodies on this build: panel, axpy and mulAdd run their Go
// bodies and the stubs below are never reached.

const haveAVX2 = false

func panelAVX2(out, a *float32, aStride int, b *float32, bStride, k int, accumulate bool) {
	panic("tensor: no assembly body on this build")
}

func axpyAVX2(dst, src *float32, n int, a float32) {
	panic("tensor: no assembly body on this build")
}

func mulAddAVX2(dst, a, b *float32, n int) {
	panic("tensor: no assembly body on this build")
}
