//go:build !purego

package cpufeat

// AVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
var AVX2 = hasAVX2()

func hasAVX2() bool
