//go:build !purego

package tensor

import "micronets/internal/cpufeat"

// The assembly bodies of vec_amd64.s: panel's over k > 0 reduction
// steps and panelWidth columns, axpy's and mulAdd's over n > 0 elements.

//go:noescape
func panelAVX2(out, a *float32, aStride int, b *float32, bStride, k int, accumulate bool)

//go:noescape
func axpyAVX2(dst, src *float32, n int, a float32)

//go:noescape
func mulAddAVX2(dst, a, b *float32, n int)

var haveAVX2 = cpufeat.AVX2
