package nn

import (
	"fmt"
	"math/rand"

	ag "micronets/internal/autograd"
	"micronets/internal/tensor"
)

// sameSpec is the SAME padding every conv and depthwise layer trains
// with, so out = ceil(in/stride), as arch.Analyze sizes the row.
func sameSpec(w *ag.Var, stride int, x *ag.Var) tensor.ConvSpec {
	return tensor.Same(w.Value.Shape[0], w.Value.Shape[1], stride, stride, x.Value.Shape[1], x.Value.Shape[2])
}

// Conv2D is an unbiased SAME convolution (the BatchNorm after it carries
// the shift) with optional quantization-aware training.
type Conv2D struct {
	W      *ag.Var // [kh,kw,inC,outC]
	Stride int
	Quant  *LayerQuant
	name   string
}

// NewConv2D constructs a He-initialized convolution.
func NewConv2D(rng *rand.Rand, name string, kh, kw, inC, outC, stride int) *Conv2D {
	return &Conv2D{
		W:      ag.Param(HeInit(rng, kh*kw*inC, kh, kw, inC, outC)),
		Stride: stride,
		name:   name,
	}
}

// Forward implements Layer.
func (l *Conv2D) Forward(x *ag.Var, training bool) *ag.Var {
	w := l.Quant.maybeQuantWeights(l.W)
	y := ag.Conv2D(x, w, sameSpec(l.W, l.Stride, x))
	return l.Quant.maybeQuantActs(y, training)
}

// Params implements Layer.
func (l *Conv2D) Params() []*Param {
	return []*Param{{Name: l.name + ".w", V: l.W, Decay: true}}
}

// DepthwiseConv2D is an unbiased SAME depthwise convolution (channel
// multiplier 1).
type DepthwiseConv2D struct {
	W      *ag.Var // [kh,kw,c]
	Stride int
	Quant  *LayerQuant
	name   string
}

// NewDepthwiseConv2D constructs a He-initialized depthwise convolution.
func NewDepthwiseConv2D(rng *rand.Rand, name string, kh, kw, c, stride int) *DepthwiseConv2D {
	return &DepthwiseConv2D{
		W:      ag.Param(HeInit(rng, kh*kw, kh, kw, c)),
		Stride: stride,
		name:   name,
	}
}

// Forward implements Layer.
func (l *DepthwiseConv2D) Forward(x *ag.Var, training bool) *ag.Var {
	w := l.Quant.maybeQuantWeights(l.W)
	y := ag.DepthwiseConv2D(x, w, sameSpec(l.W, l.Stride, x))
	return l.Quant.maybeQuantActs(y, training)
}

// Params implements Layer.
func (l *DepthwiseConv2D) Params() []*Param {
	return []*Param{{Name: l.name + ".w", V: l.W, Decay: true}}
}

// Dense is a biased fully connected layer over [n, features] inputs.
type Dense struct {
	W     *ag.Var // [in,out]
	B     *ag.Var // [out]
	Quant *LayerQuant
	name  string
}

// NewDense constructs a Glorot-initialized fully connected layer.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	return &Dense{
		W:    ag.Param(GlorotInit(rng, in, out, in, out)),
		B:    ag.Param(tensor.New(out)),
		name: name,
	}
}

// Forward implements Layer. 4-D inputs are flattened automatically.
func (l *Dense) Forward(x *ag.Var, training bool) *ag.Var {
	if len(x.Value.Shape) != 2 {
		x = ag.Reshape(x, x.Value.Shape[0], -1)
	}
	w := l.Quant.maybeQuantWeights(l.W)
	y := ag.BiasAdd(ag.MatMul(x, w), l.B)
	return l.Quant.maybeQuantActs(y, training)
}

// Params implements Layer.
func (l *Dense) Params() []*Param {
	return []*Param{{Name: l.name + ".w", V: l.W, Decay: true}, {Name: l.name + ".b", V: l.B}}
}

// bnMomentum is the EMA momentum of every BatchNorm's running statistics
// and bnEps its variance epsilon.
const (
	bnMomentum float32 = 0.9
	bnEps      float32 = 1e-3
)

// BatchNorm keeps running statistics and normalizes over all but the
// channel dimension.
type BatchNorm struct {
	Gamma, Beta *ag.Var
	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor
	name        string
}

// NewBatchNorm constructs a BatchNorm layer for c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	return &BatchNorm{
		Gamma:       ag.Param(tensor.New(c).Fill(1)),
		Beta:        ag.Param(tensor.New(c)),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.New(c).Fill(1),
		name:        name,
	}
}

// Forward implements Layer.
func (l *BatchNorm) Forward(x *ag.Var, training bool) *ag.Var {
	if training {
		y, stats := ag.BatchNorm(x, l.Gamma, l.Beta, bnEps, nil)
		for j := range l.RunningMean.Data {
			l.RunningMean.Data[j] = bnMomentum*l.RunningMean.Data[j] + (1-bnMomentum)*stats.Mean.Data[j]
			l.RunningVar.Data[j] = bnMomentum*l.RunningVar.Data[j] + (1-bnMomentum)*stats.Var.Data[j]
		}
		return y
	}
	y, _ := ag.BatchNorm(x, l.Gamma, l.Beta, bnEps,
		&ag.BatchNormStats{Mean: l.RunningMean, Var: l.RunningVar})
	return y
}

// Params implements Layer.
func (l *BatchNorm) Params() []*Param {
	return []*Param{
		{Name: l.name + ".gamma", V: l.Gamma},
		{Name: l.name + ".beta", V: l.Beta},
	}
}

// FoldedScaleShift returns the inference-time affine (scale, shift) per
// channel that this BatchNorm applies, used when folding BN into preceding
// convolutions for deployment.
func (l *BatchNorm) FoldedScaleShift() (scale, shift []float32) {
	c := l.Gamma.Value.Len()
	scale = make([]float32, c)
	shift = make([]float32, c)
	for j := 0; j < c; j++ {
		inv := 1 / sqrtf(l.RunningVar.Data[j]+bnEps)
		scale[j] = l.Gamma.Value.Data[j] * inv
		shift[j] = l.Beta.Value.Data[j] - l.RunningMean.Data[j]*scale[j]
	}
	return scale, shift
}

// Activation applies a fixed nonlinearity.
type Activation struct {
	Kind string // "relu" or "relu6", as arch.LayerInfo.Act names them
}

// Forward implements Layer.
func (l *Activation) Forward(x *ag.Var, training bool) *ag.Var {
	switch l.Kind {
	case "relu":
		return ag.ReLU(x)
	case "relu6":
		return ag.ReLU6(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %q", l.Kind))
	}
}

// Params implements Layer.
func (l *Activation) Params() []*Param { return nil }

// AvgPool averages over VALID (unpadded) windows.
type AvgPool struct {
	KH, KW, Stride int
}

// Forward implements Layer.
func (l *AvgPool) Forward(x *ag.Var, training bool) *ag.Var {
	return ag.AvgPool2D(x, tensor.ConvSpec{KH: l.KH, KW: l.KW, SH: l.Stride, SW: l.Stride})
}

// Params implements Layer.
func (l *AvgPool) Params() []*Param { return nil }

// MaxPoolLayer takes the maximum over VALID (unpadded) windows.
type MaxPoolLayer struct {
	KH, KW, Stride int
}

// Forward implements Layer.
func (l *MaxPoolLayer) Forward(x *ag.Var, training bool) *ag.Var {
	return ag.MaxPool2D(x, tensor.ConvSpec{KH: l.KH, KW: l.KW, SH: l.Stride, SW: l.Stride})
}

// Params implements Layer.
func (l *MaxPoolLayer) Params() []*Param { return nil }

// Dropout zeroes a fraction of activations during training, scaling the
// survivors (inverted dropout).
type Dropout struct {
	Rate float32
	Rng  *rand.Rand
}

// Forward implements Layer.
func (l *Dropout) Forward(x *ag.Var, training bool) *ag.Var {
	if !training || l.Rate <= 0 {
		return x
	}
	mask := tensor.New(x.Value.Shape...)
	keep := 1 - l.Rate
	inv := 1 / keep
	for i := range mask.Data {
		if l.Rng.Float32() < keep {
			mask.Data[i] = inv
		}
	}
	return ag.Mul(x, ag.Constant(mask))
}

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// Residual adds its input to its body's output: the identity shortcut of
// an IBN block whose stride is 1 and whose width is kept.
type Residual struct {
	Body Layer
}

// Forward implements Layer.
func (l *Residual) Forward(x *ag.Var, training bool) *ag.Var {
	return ag.Add(l.Body.Forward(x, training), x)
}

// Params implements Layer.
func (l *Residual) Params() []*Param { return l.Body.Params() }
