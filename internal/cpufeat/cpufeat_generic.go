//go:build !amd64 || purego

package cpufeat

// AVX2 is false: this build carries no assembly.
const AVX2 = false
