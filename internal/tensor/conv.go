package tensor

import (
	"fmt"
	"math"
)

// ConvSpec describes a 2-D convolution in NHWC layout.
type ConvSpec struct {
	KH, KW    int // kernel height/width
	SH, SW    int // strides
	PadTop    int
	PadBottom int
	PadLeft   int
	PadRight  int
}

// SameOut returns the TensorFlow "SAME" output size, ceil(in/s), for an
// input size and stride.
func SameOut(in, s int) int { return (in + s - 1) / s }

// ValidOut returns the "VALID" output size for an input size, window and
// stride, at least 1: a window larger than the input covers it once.
func ValidOut(in, k, s int) int { return max((in-k)/s+1, 1) }

// SamePadding returns the TensorFlow "SAME" padding for the given input
// size, kernel size and stride.
func SamePadding(in, k, s int) (before, after int) {
	pad := (SameOut(in, s)-1)*s + k - in
	if pad < 0 {
		pad = 0
	}
	return pad / 2, pad - pad/2
}

// Same returns a ConvSpec with TensorFlow-SAME padding for an input of the
// given spatial size.
func Same(kh, kw, sh, sw, inH, inW int) ConvSpec {
	pt, pb := SamePadding(inH, kh, sh)
	pl, pr := SamePadding(inW, kw, sw)
	return ConvSpec{KH: kh, KW: kw, SH: sh, SW: sw, PadTop: pt, PadBottom: pb, PadLeft: pl, PadRight: pr}
}

// OutSize returns the output spatial dimensions for an input of (h, w).
func (c ConvSpec) OutSize(h, w int) (oh, ow int) {
	oh = (h+c.PadTop+c.PadBottom-c.KH)/c.SH + 1
	ow = (w+c.PadLeft+c.PadRight-c.KW)/c.SW + 1
	return oh, ow
}

// Im2Col unrolls x [n,h,w,c] into a matrix [n*oh*ow, kh*kw*c] so that a
// convolution becomes a matmul with a [kh*kw*c, outC] weight matrix. This is
// the same strategy CMSIS-NN uses on the MCU (and whose overhead the paper's
// Figure 3 attributes depthwise slowness to).
func Im2Col(x *Tensor, spec ConvSpec) *Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("tensor: Im2Col needs NHWC input, got %v", x.Shape))
	}
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, w)
	cols := New(n*oh*ow, spec.KH*spec.KW*c)
	row := 0
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				dst := cols.Data[row*cols.Shape[1] : (row+1)*cols.Shape[1]]
				di := 0
				for ky := 0; ky < spec.KH; ky++ {
					iy := oy*spec.SH + ky - spec.PadTop
					for kx := 0; kx < spec.KW; kx++ {
						ix := ox*spec.SW + kx - spec.PadLeft
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							src := x.Data[((b*h+iy)*w+ix)*c : ((b*h+iy)*w+ix+1)*c]
							copy(dst[di:di+c], src)
						}
						// else: leave zeros (padding)
						di += c
					}
				}
				row++
			}
		}
	}
	return cols
}

// Col2Im is the adjoint of Im2Col: it scatters the column matrix back into
// an NHWC tensor of the given shape, accumulating overlaps. It is used by
// the convolution backward pass.
func Col2Im(cols *Tensor, spec ConvSpec, n, h, w, c int) *Tensor {
	oh, ow := spec.OutSize(h, w)
	if cols.Shape[0] != n*oh*ow || cols.Shape[1] != spec.KH*spec.KW*c {
		panic(fmt.Sprintf("tensor: Col2Im shape mismatch %v for output %dx%dx%dx%d", cols.Shape, n, h, w, c))
	}
	x := New(n, h, w, c)
	row := 0
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				src := cols.Data[row*cols.Shape[1] : (row+1)*cols.Shape[1]]
				si := 0
				for ky := 0; ky < spec.KH; ky++ {
					iy := oy*spec.SH + ky - spec.PadTop
					for kx := 0; kx < spec.KW; kx++ {
						ix := ox*spec.SW + kx - spec.PadLeft
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							dst := x.Data[((b*h+iy)*w+ix)*c : ((b*h+iy)*w+ix+1)*c]
							for j := 0; j < c; j++ {
								dst[j] += src[si+j]
							}
						}
						si += c
					}
				}
				row++
			}
		}
	}
	return x
}

// DepthwiseConv2D computes a depthwise convolution with multiplier 1.
// x is [n,h,w,c], wgt is [kh,kw,c]; the result is [n,oh,ow,c].
func DepthwiseConv2D(x, wgt *Tensor, spec ConvSpec) *Tensor {
	if len(wgt.Shape) != 3 || wgt.Shape[0] != spec.KH || wgt.Shape[1] != spec.KW {
		panic(fmt.Sprintf("tensor: DepthwiseConv2D weight shape %v does not match spec %+v", wgt.Shape, spec))
	}
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if wgt.Shape[2] != c {
		panic(fmt.Sprintf("tensor: DepthwiseConv2D channels %d != weight c %d", c, wgt.Shape[2]))
	}
	oh, ow := spec.OutSize(h, w)
	y := New(n, oh, ow, c)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				dst := y.Data[((b*oh+oy)*ow+ox)*c : ((b*oh+oy)*ow+ox+1)*c]
				for ky := 0; ky < spec.KH; ky++ {
					iy := oy*spec.SH + ky - spec.PadTop
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < spec.KW; kx++ {
						ix := ox*spec.SW + kx - spec.PadLeft
						if ix < 0 || ix >= w {
							continue
						}
						src := x.Data[((b*h+iy)*w+ix)*c : ((b*h+iy)*w+ix+1)*c]
						mulAdd(dst, src, wgt.Data[(ky*spec.KW+kx)*c:])
					}
				}
			}
		}
	}
	return y
}

// DepthwiseConv2DBackward returns the gradients of a depthwise convolution
// with respect to its input and weights given upstream gradient dy.
func DepthwiseConv2DBackward(x, wgt, dy *Tensor, spec ConvSpec) (dx, dw *Tensor) {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, w)
	dx = New(n, h, w, c)
	dw = New(spec.KH, spec.KW, c)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := dy.Data[((b*oh+oy)*ow+ox)*c : ((b*oh+oy)*ow+ox+1)*c]
				for ky := 0; ky < spec.KH; ky++ {
					iy := oy*spec.SH + ky - spec.PadTop
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < spec.KW; kx++ {
						ix := ox*spec.SW + kx - spec.PadLeft
						if ix < 0 || ix >= w {
							continue
						}
						xoff := ((b*h+iy)*w + ix) * c
						koff := (ky*spec.KW + kx) * c
						mulAdd(dx.Data[xoff:xoff+c], g, wgt.Data[koff:])
						mulAdd(dw.Data[koff:koff+c], g, x.Data[xoff:])
					}
				}
			}
		}
	}
	return dx, dw
}

// AvgPool2D computes average pooling over non-overlapping-or-strided
// windows. x is [n,h,w,c].
func AvgPool2D(x *Tensor, spec ConvSpec) *Tensor {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, w)
	y := New(n, oh, ow, c)
	inv := 1.0 / float32(spec.KH*spec.KW)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				dst := y.Data[((b*oh+oy)*ow+ox)*c : ((b*oh+oy)*ow+ox+1)*c]
				for ky := 0; ky < spec.KH; ky++ {
					iy := oy*spec.SH + ky - spec.PadTop
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < spec.KW; kx++ {
						ix := ox*spec.SW + kx - spec.PadLeft
						if ix < 0 || ix >= w {
							continue
						}
						src := x.Data[((b*h+iy)*w+ix)*c : ((b*h+iy)*w+ix+1)*c]
						for j := 0; j < c; j++ {
							dst[j] += src[j]
						}
					}
				}
				for j := 0; j < c; j++ {
					dst[j] *= inv
				}
			}
		}
	}
	return y
}

// AvgPool2DBackward distributes the upstream gradient uniformly over each
// pooling window.
func AvgPool2DBackward(x, dy *Tensor, spec ConvSpec) *Tensor {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, w)
	dx := New(n, h, w, c)
	inv := 1.0 / float32(spec.KH*spec.KW)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := dy.Data[((b*oh+oy)*ow+ox)*c : ((b*oh+oy)*ow+ox+1)*c]
				for ky := 0; ky < spec.KH; ky++ {
					iy := oy*spec.SH + ky - spec.PadTop
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < spec.KW; kx++ {
						ix := ox*spec.SW + kx - spec.PadLeft
						if ix < 0 || ix >= w {
							continue
						}
						dst := dx.Data[((b*h+iy)*w+ix)*c : ((b*h+iy)*w+ix+1)*c]
						for j := 0; j < c; j++ {
							dst[j] += g[j] * inv
						}
					}
				}
			}
		}
	}
	return dx
}

// MaxPool2D computes max pooling and additionally returns the argmax flat
// indices into x for use by the backward pass. Each output starts at -Inf
// with its argmax on the window's first in-bounds tap, so a window of
// -Inf (or -MaxFloat32) values still pools to its own maximum and sends
// its gradient inside itself; a window with no in-bounds tap pools to
// -Inf with argmax -1, and MaxPool2DBackward drops its gradient.
func MaxPool2D(x *Tensor, spec ConvSpec) (*Tensor, []int) {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := spec.OutSize(h, w)
	y := New(n, oh, ow, c)
	arg := make([]int, y.Len())
	negInf := float32(math.Inf(-1))
	for i := range y.Data {
		y.Data[i] = negInf
		arg[i] = -1
	}
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				base := ((b*oh+oy)*ow + ox) * c
				first := true
				for ky := 0; ky < spec.KH; ky++ {
					iy := oy*spec.SH + ky - spec.PadTop
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < spec.KW; kx++ {
						ix := ox*spec.SW + kx - spec.PadLeft
						if ix < 0 || ix >= w {
							continue
						}
						xoff := ((b*h+iy)*w + ix) * c
						if first {
							for j := 0; j < c; j++ {
								arg[base+j] = xoff + j
							}
							first = false
						}
						for j := 0; j < c; j++ {
							if x.Data[xoff+j] > y.Data[base+j] {
								y.Data[base+j] = x.Data[xoff+j]
								arg[base+j] = xoff + j
							}
						}
					}
				}
			}
		}
	}
	return y, arg
}

// MaxPool2DBackward routes each upstream gradient element to the argmax
// location recorded during the forward pass.
func MaxPool2DBackward(xShape []int, arg []int, dy *Tensor) *Tensor {
	dx := New(xShape...)
	for i, g := range dy.Data {
		if arg[i] >= 0 {
			dx.Data[arg[i]] += g
		}
	}
	return dx
}

// BilinearResize resizes an NHWC tensor to (outH, outW) using bilinear
// interpolation with align-corners=false semantics, matching the paper's
// spectrogram down-sampling for anomaly detection (64x64 -> 32x32).
func BilinearResize(x *Tensor, outH, outW int) *Tensor {
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := New(n, outH, outW, c)
	scaleY := float64(h) / float64(outH)
	scaleX := float64(w) / float64(outW)
	for b := 0; b < n; b++ {
		for oy := 0; oy < outH; oy++ {
			sy := (float64(oy)+0.5)*scaleY - 0.5
			y0 := int(sy)
			if sy < 0 {
				y0 = 0
				sy = 0
			}
			y1 := y0 + 1
			if y1 >= h {
				y1 = h - 1
			}
			fy := float32(sy - float64(y0))
			for ox := 0; ox < outW; ox++ {
				sx := (float64(ox)+0.5)*scaleX - 0.5
				x0 := int(sx)
				if sx < 0 {
					x0 = 0
					sx = 0
				}
				x1 := x0 + 1
				if x1 >= w {
					x1 = w - 1
				}
				fx := float32(sx - float64(x0))
				dst := y.Data[((b*outH+oy)*outW+ox)*c : ((b*outH+oy)*outW+ox+1)*c]
				p00 := x.Data[((b*h+y0)*w+x0)*c : ((b*h+y0)*w+x0+1)*c]
				p01 := x.Data[((b*h+y0)*w+x1)*c : ((b*h+y0)*w+x1+1)*c]
				p10 := x.Data[((b*h+y1)*w+x0)*c : ((b*h+y1)*w+x0+1)*c]
				p11 := x.Data[((b*h+y1)*w+x1)*c : ((b*h+y1)*w+x1+1)*c]
				for j := 0; j < c; j++ {
					top := p00[j] + (p01[j]-p00[j])*fx
					bot := p10[j] + (p11[j]-p10[j])*fx
					dst[j] = top + (bot-top)*fy
				}
			}
		}
	}
	return y
}
