//go:build !purego

package kernels

import "micronets/internal/cpufeat"

// The assembly bodies of gemm_amd64.s. haveSIMD gates them once per
// process; an op binds them only if its multipliers also fit the vector
// requantize (Ctx.vecRequant), otherwise it keeps the portable body.

//go:noescape
func gemmTile(a *int8, rows, k int, wide *int16, b *int8, e *epilogue, out *int8, n int)

//go:noescape
func gemm1x16(a *int8, k int, b *int8, e *epilogue, col int, out *int8, nc int)

//go:noescape
func dwPairs9(taps *[9]*int8, w *int16, c int, base *int32, e *epilogue, out *int8, npix, step int)

//go:noescape
func addVec(a, b *int8, n int, p *addParams, out *int8)

var haveSIMD = cpufeat.AVX2
