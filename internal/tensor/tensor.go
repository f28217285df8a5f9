// Package tensor implements dense float32 tensors in row-major layout and
// the raw numeric kernels (matmul, im2col convolution, pooling, reductions)
// on which the autograd and nn packages are built.
//
// Tensors are the training-time substrate of the reproduction: the paper
// trains its supernets in TensorFlow, and since no mature Go training
// framework exists this package supplies the equivalent primitives from
// scratch using only the standard library.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Tensor is a dense row-major float32 array with an explicit shape.
// A Tensor with an empty shape is a scalar holding one element.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New creates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := NumElems(shape)
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The data is not
// copied; len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for shape %v (want %d)",
			len(data), shape, NumElems(shape)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Scalar returns a 0-dim tensor holding v.
func Scalar(v float32) *Tensor {
	return &Tensor{Shape: []int{}, Data: []float32{v}}
}

// NumElems returns the product of the dimensions in shape.
func NumElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i, supporting negative indices.
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.Shape)
	}
	return t.Shape[i]
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape covering the same data.
// One dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape allows at most one -1 dimension")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || t.Len()%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.Shape, shape))
		}
		shape[infer] = t.Len() / known
	}
	if NumElems(shape) != t.Len() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// Fill sets every element of t to v and returns t.
func (t *Tensor) Fill(v float32) *Tensor {
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// String renders a short description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v{n=%d}", t.Shape, t.Len())
}

// Randn fills a new tensor with N(0, stddev) samples from rng.
func Randn(rng *rand.Rand, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * stddev)
	}
	return t
}

// RandUniform fills a new tensor with U[lo, hi) samples from rng.
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
	return t
}

// Add writes a+b into dst elementwise and returns dst. Shapes must match.
func Add(dst, a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	checkSameShape("Add", dst, a)
	d, bd := dst.Data[:len(a.Data)], b.Data[:len(a.Data)]
	for i, v := range a.Data {
		d[i] = v + bd[i]
	}
	return dst
}

// Mul writes a*b into dst elementwise and returns dst.
func Mul(dst, a, b *Tensor) *Tensor {
	checkSameShape("Mul", a, b)
	checkSameShape("Mul", dst, a)
	d, bd := dst.Data[:len(a.Data)], b.Data[:len(a.Data)]
	for i, v := range a.Data {
		d[i] = v * bd[i]
	}
	return dst
}

// Scale writes a*s into dst and returns dst; dst may be a itself.
func Scale(dst, a *Tensor, s float32) *Tensor {
	checkSameShape("Scale", dst, a)
	d := dst.Data[:len(a.Data)]
	for i, v := range a.Data {
		d[i] = v * s
	}
	return dst
}

// AddInPlace accumulates src into dst elementwise.
func AddInPlace(dst, src *Tensor) {
	checkSameShape("AddInPlace", dst, src)
	for i := range dst.Data {
		dst.Data[i] += src.Data[i]
	}
}

// AxpyInPlace computes dst += alpha*src.
func AxpyInPlace(dst *Tensor, alpha float32, src *Tensor) {
	checkSameShape("AxpyInPlace", dst, src)
	Axpy(dst.Data, alpha, src.Data)
}

// Sum returns the sum of all elements.
func Sum(a *Tensor) float32 {
	var s float64
	for _, v := range a.Data {
		s += float64(v)
	}
	return float32(s)
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func Mean(a *Tensor) float32 {
	if a.Len() == 0 {
		return 0
	}
	return Sum(a) / float32(a.Len())
}

// Max returns the maximum element; panics on empty tensors.
func Max(a *Tensor) float32 {
	if a.Len() == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := a.Data[0]
	for _, v := range a.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element; panics on empty tensors.
func Min(a *Tensor) float32 {
	if a.Len() == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := a.Data[0]
	for _, v := range a.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Dot returns the inner product of two equal-shaped tensors.
func Dot(a, b *Tensor) float32 {
	checkSameShape("Dot", a, b)
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return float32(s)
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a *Tensor) float32 {
	var s float64
	for _, v := range a.Data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

func checkSameShape(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// checkDst panics unless dst has exactly the given dimensions.
func checkDst(op string, dst *Tensor, dims ...int) {
	ok := len(dst.Shape) == len(dims)
	for i := 0; ok && i < len(dims); i++ {
		ok = dst.Shape[i] == dims[i]
	}
	if !ok {
		panic(fmt.Sprintf("tensor: %s destination %v, want %v", op, dst.Shape, append([]int(nil), dims...)))
	}
}

// The three matmuls share one rule: every output element accumulates its
// products for ascending reduction index p, starting from +0 and
// skipping a zero left-hand factor, through panel, which holds a 64-column
// strip of one output row in registers for the whole reduction. Each
// overwrites its destination, so dst may hold anything on entry. From
// twice parallelGrain multiply-adds a call splits its output rows across
// GOMAXPROCS goroutines; a row's sums do not depend on the split, so the
// result is the same bits on any core count and on either panel body.

// MatMul writes a@b into dst [m,n] for 2-D tensors a [m,k] and b [k,n]
// and returns dst.
func MatMul(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D operands, got %v and %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims differ: %v vs %v", a.Shape, b.Shape))
	}
	checkDst("MatMul", dst, m, n)
	matMul(dst.Data, a.Data, b.Data, m, k, n)
	return dst
}

// MatMulT writes a@bᵀ into dst [m,n] for 2-D tensors a [m,k] and b [n,k]
// and returns dst: MatMul over the transpose of b, which it writes into
// the scratch bT [k,n]. Skipping zero a[i,p] differs from a dot product
// of the two rows only where b holds an Inf or NaN.
func MatMulT(dst, a, b, bT *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulT needs 2-D operands, got %v and %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dims differ: %v vs %v", a.Shape, b.Shape))
	}
	checkDst("MatMulT", dst, m, n)
	matMul(dst.Data, a.Data, Transpose2D(bT, b).Data, m, k, n)
	return dst
}

// matMul is MatMul over raw row-major data: out row i gets a[i,p]·b[p,:]
// for ascending p.
func matMul(out, a, b []float32, m, k, n int) {
	parallelRows(m, m*k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			panels(out[i*n:(i+1)*n], a[i*k:], 1, b, n, k, false)
		}
	})
}

// TMatMul writes aᵀ@b into dst [m,n] for 2-D tensors a [k,m] and b [k,n]
// and returns dst. Output row i reads column i of a. Each chunk of output
// rows walks the reduction in blocks of tmatBlockBytes of b, which stay
// in cache while every row of the chunk takes its partial sums through
// them.
func TMatMul(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: TMatMul needs 2-D operands, got %v and %v", a.Shape, b.Shape))
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: TMatMul inner dims differ: %v vs %v", a.Shape, b.Shape))
	}
	checkDst("TMatMul", dst, m, n)
	if k == 0 || n == 0 {
		clear(dst.Data)
		return dst
	}
	block := max(1, tmatBlockBytes/(4*n))
	parallelRows(m, k*m*n, func(lo, hi int) {
		for p := 0; p < k; p += block {
			kb := min(block, k-p)
			for i := lo; i < hi; i++ {
				panels(dst.Data[i*n:(i+1)*n], a.Data[p*m+i:], m, b.Data[p*n:], n, kb, p > 0)
			}
		}
	})
	return dst
}

// tmatBlockBytes is the slice of b one TMatMul block reads: 64 rows of a
// 64-column b. The block's rows of a, one cache line per step for each
// output row's strided column, must stay cached beside it: on a 2-vCPU
// AVX2 Xeon guest (48 KB L1) 64-row blocks ran the supernet's TMatMul
// shapes as fast as a contiguous a, 128-row blocks 15 % slower.
const tmatBlockBytes = 16 << 10

// parallelGrain is the fewest multiply-adds one goroutine of a split
// matmul gets, about 40 µs of panel work: measured at -cpu 2 on a 2-vCPU
// AVX2 Xeon guest with 64×64 right factors, a 2-way split of 2^17
// multiply-adds ran 1.25× slower than inline, 2^20 broke even and 2^21
// won.
const parallelGrain = 1 << 19

// parallelRows runs fn over [0, rows) in contiguous chunks, one goroutine
// each, at most GOMAXPROCS of them and none with less than parallelGrain
// of the call's work (its multiply-adds); small calls run inline.
func parallelRows(rows, work int, fn func(lo, hi int)) {
	chunks := min(runtime.GOMAXPROCS(0), rows, work/parallelGrain)
	if chunks <= 1 {
		fn(0, rows)
		return
	}
	size := (rows + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := size; lo < rows; lo += size {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+size, rows))
	}
	fn(0, size)
	wg.Wait()
}

// Transpose2D writes the transpose of the 2-D tensor a [m,n] into
// out [n,m] and returns out.
func Transpose2D(out, a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D needs a 2-D tensor, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	checkDst("Transpose2D", out, n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}
