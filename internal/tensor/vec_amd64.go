//go:build !purego

package tensor

import "micronets/internal/cpufeat"

// The assembly bodies of vec_amd64.s, each over n > 0 elements.

//go:noescape
func axpyAVX2(dst, src *float32, n int, a float32)

//go:noescape
func mulAddAVX2(dst, a, b *float32, n int)

var haveAVX2 = cpufeat.AVX2
