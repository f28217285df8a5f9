package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkMatMulShapes times the float kernels on the DNAS supernet's
// real shapes (internal/core's KWS supernet, batch 8, 64 channels): the
// 10×4 first conv over 49×10 MFCCs as a 3920×40 · 40×64 matmul and its
// weight gradient, the 1000-row pointwise conv in all three matmul
// forms, and the 3×3 depthwise conv forward and backward. Run it with
// -cpu 1,2: the matmuls split rows across GOMAXPROCS.
func BenchmarkMatMulShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mm := []struct {
		name      string
		f         func(dst, a, b *Tensor) *Tensor
		dst, a, b *Tensor
	}{
		{"first/MatMul/3920x40x64", MatMul, New(3920, 64), Randn(rng, 1, 3920, 40), Randn(rng, 1, 40, 64)},
		{"first/TMatMul/3920x40x64", TMatMul, New(40, 64), Randn(rng, 1, 3920, 40), Randn(rng, 1, 3920, 64)},
		{"pw/MatMul/1000x64x64", MatMul, New(1000, 64), Randn(rng, 1, 1000, 64), Randn(rng, 1, 64, 64)},
		{"pw/TMatMul/1000x64x64", TMatMul, New(64, 64), Randn(rng, 1, 1000, 64), Randn(rng, 1, 1000, 64)},
		{"pw/MatMulT/1000x64x64", func(dst, a, b *Tensor) *Tensor { return MatMulT(dst, a, b, New(64, 64)) },
			New(1000, 64), Randn(rng, 1, 1000, 64), Randn(rng, 1, 64, 64)},
	}
	for _, c := range mm {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				c.f(c.dst, c.a, c.b)
			}
		})
	}
	x, w := Randn(rng, 1, 8, 25, 5, 64), Randn(rng, 1, 3, 3, 64)
	spec := Same(3, 3, 1, 1, 25, 5)
	dy := DepthwiseConv2D(New(8, 25, 5, 64), x, w, spec)
	y, dx, dw := New(8, 25, 5, 64), New(8, 25, 5, 64), New(3, 3, 64)
	b.Run("dw/fwd/8x25x5x64", func(b *testing.B) {
		for range b.N {
			DepthwiseConv2D(y, x, w, spec)
		}
	})
	b.Run("dw/bwd/8x25x5x64", func(b *testing.B) {
		for range b.N {
			DepthwiseConv2DBackward(dx, dw, x, w, dy, spec)
		}
	})
}
