package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkMatMulShapes times the float kernels on the DNAS supernet's
// real shapes (internal/core's KWS supernet, batch 8, 64 channels): the
// 10×4 first conv over 49×10 MFCCs as a 3920×40 · 40×64 matmul and its
// weight gradient, the 1000-row pointwise conv in all three matmul
// forms, and the 3×3 depthwise conv forward and backward. Each matmul
// runs twice: on dense N(0,1) left factors, and ("/sparse") with the
// share of zero left factors the nas_sweep warm start feeds it (measured
// over its ten steps: post-ReLU activations in the pointwise forward and
// weight gradient, the output gradient in MatMulT, the zero-padded MFCC
// columns in the first conv), which the kernels skip. Run it with
// -cpu 1,2: the matmuls split rows across GOMAXPROCS.
func BenchmarkMatMulShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mm := []struct {
		name      string
		f         func(dst, a, b *Tensor) *Tensor
		dst, a, b *Tensor
		zeros     float64 // share of zero left factors in the sparse run
	}{
		{"first/MatMul/3920x40x64", MatMul, New(3920, 64), Randn(rng, 1, 3920, 40), Randn(rng, 1, 40, 64), 0.15},
		{"first/TMatMul/3920x40x64", TMatMul, New(40, 64), Randn(rng, 1, 3920, 40), Randn(rng, 1, 3920, 64), 0.15},
		{"pw/MatMul/1000x64x64", MatMul, New(1000, 64), Randn(rng, 1, 1000, 64), Randn(rng, 1, 64, 64), 0.51},
		{"pw/TMatMul/1000x64x64", TMatMul, New(64, 64), Randn(rng, 1, 1000, 64), Randn(rng, 1, 1000, 64), 0.51},
		{"pw/MatMulT/1000x64x64", func(dst, a, b *Tensor) *Tensor { return MatMulT(dst, a, b, New(64, 64)) },
			New(1000, 64), Randn(rng, 1, 1000, 64), Randn(rng, 1, 64, 64), 0.23},
	}
	for _, c := range mm {
		sparse := c.a.Clone()
		for i := range sparse.Data {
			if rng.Float64() < c.zeros {
				sparse.Data[i] = 0
			}
		}
		for _, run := range []struct {
			name string
			a    *Tensor
		}{{c.name, c.a}, {c.name + "/sparse", sparse}} {
			b.Run(run.name, func(b *testing.B) {
				for range b.N {
					c.f(c.dst, run.a, c.b)
				}
			})
		}
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
