package tensor

import (
	"fmt"
	"math"
)

// The indexed accessors and the im2col convolution are test oracles:
// autograd runs its own convolutions over Im2Col and MatMul.

// junk returns a tensor of the given shape filled with NaN: the
// destination the tests hand the kernels, which must overwrite all of it.
func junk(shape ...int) *Tensor {
	return New(shape...).Fill(float32(math.NaN()))
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Conv2D computes a standard 2-D convolution. x is [n,h,w,inC] and w is
// [kh,kw,inC,outC]; the result is [n,oh,ow,outC].
func Conv2D(x, wgt *Tensor, spec ConvSpec) *Tensor {
	if len(wgt.Shape) != 4 || wgt.Shape[0] != spec.KH || wgt.Shape[1] != spec.KW {
		panic(fmt.Sprintf("tensor: Conv2D weight shape %v does not match spec %+v", wgt.Shape, spec))
	}
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if wgt.Shape[2] != c {
		panic(fmt.Sprintf("tensor: Conv2D input channels %d != weight inC %d", c, wgt.Shape[2]))
	}
	outC := wgt.Shape[3]
	oh, ow := spec.OutSize(h, w)
	cols := Im2Col(junk(n*oh*ow, spec.KH*spec.KW*c), x, spec)
	wmat := wgt.Reshape(spec.KH*spec.KW*c, outC)
	y := MatMul(junk(n*oh*ow, outC), cols, wmat)
	return y.Reshape(n, oh, ow, outC)
}
