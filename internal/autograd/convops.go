package autograd

import (
	"micronets/internal/tensor"
)

// Conv2D applies a standard convolution. x is [n,h,w,inC], w is
// [kh,kw,inC,outC]. The backward pass uses the im2col adjoint. A 1×1
// stride-1 unpadded conv (a pointwise layer) is already a matmul: x
// itself is the column matrix, and neither pass copies it.
func Conv2D(x, w *Var, spec tensor.ConvSpec) *Var {
	n, h, ww, c := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	outC := w.Value.Shape[3]
	oh, ow := spec.OutSize(h, ww)
	pointwise := spec == tensor.ConvSpec{KH: 1, KW: 1, SH: 1, SW: 1}
	var cols *tensor.Tensor
	if pointwise {
		cols = x.Value.Reshape(n*h*ww, c)
	} else {
		cols = tensor.Im2Col(x.Value, spec)
	}
	wmat := w.Value.Reshape(spec.KH*spec.KW*c, outC)
	y := tensor.MatMul(cols, wmat).Reshape(n, oh, ow, outC)
	var v *Var
	v = newOp(y, func() {
		dy := v.Grad.Reshape(n*oh*ow, outC)
		if w.requiresGrad {
			dw := tensor.TMatMul(cols, dy) // [khkwC, outC]
			w.accumulate(dw.Reshape(w.Value.Shape...))
		}
		if x.requiresGrad {
			dcols := tensor.MatMulT(dy, wmat) // dy @ wmatᵀ = [n*oh*ow, khkwC]
			if pointwise {
				x.accumulate(dcols.Reshape(n, h, ww, c))
			} else {
				x.accumulate(tensor.Col2Im(dcols, spec, n, h, ww, c))
			}
		}
	}, x, w)
	return v
}

// DepthwiseConv2D applies a depthwise convolution with multiplier 1.
// x is [n,h,w,c], w is [kh,kw,c].
func DepthwiseConv2D(x, w *Var, spec tensor.ConvSpec) *Var {
	y := tensor.DepthwiseConv2D(x.Value, w.Value, spec)
	var v *Var
	v = newOp(y, func() {
		dx, dw := tensor.DepthwiseConv2DBackward(x.Value, w.Value, v.Grad, spec)
		x.accumulate(dx)
		w.accumulate(dw)
	}, x, w)
	return v
}

// AvgPool2D applies average pooling.
func AvgPool2D(x *Var, spec tensor.ConvSpec) *Var {
	y := tensor.AvgPool2D(x.Value, spec)
	var v *Var
	v = newOp(y, func() {
		x.accumulate(tensor.AvgPool2DBackward(x.Value, v.Grad, spec))
	}, x)
	return v
}

// MaxPool2D applies max pooling.
func MaxPool2D(x *Var, spec tensor.ConvSpec) *Var {
	y, arg := tensor.MaxPool2D(x.Value, spec)
	shape := append([]int(nil), x.Value.Shape...)
	var v *Var
	v = newOp(y, func() {
		x.accumulate(tensor.MaxPool2DBackward(shape, arg, v.Grad))
	}, x)
	return v
}

// GlobalAvgPool reduces [n,h,w,c] to [n,c] by averaging over space — the
// final pooling in every MicroNet architecture.
func GlobalAvgPool(x *Var) *Var {
	n, h, w, c := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	y := tensor.New(n, c)
	inv := 1 / float32(h*w)
	for b := 0; b < n; b++ {
		for i := 0; i < h*w; i++ {
			src := x.Value.Data[(b*h*w+i)*c : (b*h*w+i+1)*c]
			dst := y.Data[b*c : (b+1)*c]
			for j := 0; j < c; j++ {
				dst[j] += src[j]
			}
		}
		for j := 0; j < c; j++ {
			y.Data[b*c+j] *= inv
		}
	}
	var v *Var
	v = newOp(y, func() {
		dx := tensor.New(x.Value.Shape...)
		for b := 0; b < n; b++ {
			g := v.Grad.Data[b*c : (b+1)*c]
			for i := 0; i < h*w; i++ {
				dst := dx.Data[(b*h*w+i)*c : (b*h*w+i+1)*c]
				for j := 0; j < c; j++ {
					dst[j] = g[j] * inv
				}
			}
		}
		x.accumulate(dx)
	}, x)
	return v
}
