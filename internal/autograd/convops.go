package autograd

import (
	"micronets/internal/tensor"
)

// Conv2D applies a standard convolution. x is [n,h,w,inC], w is
// [kh,kw,inC,outC]. The backward pass uses the im2col adjoint. A 1×1
// stride-1 unpadded conv (a pointwise layer) is already a matmul: x
// itself is the column matrix, and neither pass copies it.
func Conv2D(x, w *Var, spec tensor.ConvSpec) *Var {
	tp := tapeOf(x, w)
	n, h, ww, c := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	outC := w.Value.Shape[3]
	oh, ow := spec.OutSize(h, ww)
	k := spec.KH * spec.KW * c
	pointwise := spec == tensor.ConvSpec{KH: 1, KW: 1, SH: 1, SW: 1}
	var cols *tensor.Tensor
	if pointwise {
		cols = x.Value.Reshape(n*h*ww, c)
	} else {
		cols = tensor.Im2Col(tp.alloc(n*oh*ow, k), x.Value, spec)
	}
	wmat := w.Value.Reshape(k, outC)
	y := tp.alloc(n, oh, ow, outC)
	tensor.MatMul(y.Reshape(n*oh*ow, outC), cols, wmat)
	var v *Var
	v = newOp(tp, y, func() {
		dy := v.Grad.Reshape(n*oh*ow, outC)
		if w.requiresGrad {
			dw := tensor.TMatMul(tp.alloc(k, outC), cols, dy)
			w.accumulateOwned(dw.Reshape(w.Value.Shape...))
		}
		if x.requiresGrad {
			if pointwise {
				dx := tp.alloc(n, h, ww, c)
				tensor.MatMulT(dx.Reshape(n*h*ww, c), dy, wmat, tp.alloc(outC, k))
				x.accumulateOwned(dx)
			} else {
				dcols := tensor.MatMulT(tp.alloc(n*oh*ow, k), dy, wmat, tp.alloc(outC, k)) // dy @ wmatᵀ
				x.accumulateOwned(tensor.Col2Im(tp.alloc(n, h, ww, c), dcols, spec))
			}
		}
	}, x, w)
	return v
}

// DepthwiseConv2D applies a depthwise convolution with multiplier 1.
// x is [n,h,w,c], w is [kh,kw,c].
func DepthwiseConv2D(x, w *Var, spec tensor.ConvSpec) *Var {
	tp := tapeOf(x, w)
	n, h, ww, c := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	oh, ow := spec.OutSize(h, ww)
	y := tensor.DepthwiseConv2D(tp.alloc(n, oh, ow, c), x.Value, w.Value, spec)
	var v *Var
	v = newOp(tp, y, func() {
		dx, dw := tp.alloc(x.Value.Shape...), tp.alloc(w.Value.Shape...)
		tensor.DepthwiseConv2DBackward(dx, dw, x.Value, w.Value, v.Grad, spec)
		x.accumulateOwned(dx)
		w.accumulateOwned(dw)
	}, x, w)
	return v
}

// AvgPool2D applies average pooling.
func AvgPool2D(x *Var, spec tensor.ConvSpec) *Var {
	tp := tapeOf(x)
	n, h, w, c := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	oh, ow := spec.OutSize(h, w)
	y := tensor.AvgPool2D(tp.alloc(n, oh, ow, c), x.Value, spec)
	var v *Var
	v = newOp(tp, y, func() {
		x.accumulateOwned(tensor.AvgPool2DBackward(tp.alloc(x.Value.Shape...), v.Grad, spec))
	}, x)
	return v
}

// MaxPool2D applies max pooling.
func MaxPool2D(x *Var, spec tensor.ConvSpec) *Var {
	tp := tapeOf(x)
	n, h, w, c := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	oh, ow := spec.OutSize(h, w)
	y := tp.alloc(n, oh, ow, c)
	arg := tensor.MaxPool2D(y, x.Value, spec)
	var v *Var
	v = newOp(tp, y, func() {
		x.accumulateOwned(tensor.MaxPool2DBackward(tp.alloc(x.Value.Shape...), arg, v.Grad))
	}, x)
	return v
}
