//go:build !purego

package kernels

import "micronets/internal/cpufeat"

// The assembly bodies of gemm_amd64.s. haveSIMD gates them once per
// process; an op binds them only if its multipliers also fit the vector
// requantize (Ctx.vecRequant), otherwise it keeps the portable body.

//go:noescape
func widen4(a *int8, k int, w *int16)

//go:noescape
func gemm4x16w(w *int16, kp int, b *int8, e *epilogue, col int, out *int8, ldc int)

//go:noescape
func gemm1x16(a *int8, k int, b *int8, e *epilogue, col int, out *int8)

//go:noescape
func dwPairs9(taps *[9]*int8, w *int16, c int, base *int32, e *epilogue, out *int8, npix, step int)

var haveSIMD = cpufeat.AVX2
