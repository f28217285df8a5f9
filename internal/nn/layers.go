package nn

import (
	"fmt"
	"math/rand"

	ag "micronets/internal/autograd"
	"micronets/internal/tensor"
)

// Padding selects between TensorFlow SAME and VALID convolution padding.
type Padding int

const (
	// PadSame pads so that out = ceil(in/stride).
	PadSame Padding = iota
	// PadValid applies no padding.
	PadValid
)

func (p Padding) spec(kh, kw, sh, sw, inH, inW int) tensor.ConvSpec {
	if p == PadSame {
		return tensor.Same(kh, kw, sh, sw, inH, inW)
	}
	return tensor.ConvSpec{KH: kh, KW: kw, SH: sh, SW: sw}
}

// Conv2D is a standard convolution layer with optional bias and optional
// quantization-aware training.
type Conv2D struct {
	W      *ag.Var // [kh,kw,inC,outC]
	B      *ag.Var // [outC] or nil
	Stride int
	Pad    Padding
	Quant  *LayerQuant
	name   string
}

// NewConv2D constructs a He-initialized convolution.
func NewConv2D(rng *rand.Rand, name string, kh, kw, inC, outC, stride int, pad Padding, bias bool) *Conv2D {
	l := &Conv2D{
		W:      ag.Param(HeInit(rng, kh*kw*inC, kh, kw, inC, outC)),
		Stride: stride,
		Pad:    pad,
		name:   name,
	}
	if bias {
		l.B = ag.Param(tensor.New(outC))
	}
	return l
}

// Forward implements Layer.
func (l *Conv2D) Forward(x *ag.Var, training bool) *ag.Var {
	spec := l.Pad.spec(l.W.Value.Shape[0], l.W.Value.Shape[1], l.Stride, l.Stride,
		x.Value.Shape[1], x.Value.Shape[2])
	w := l.Quant.maybeQuantWeights(l.W)
	y := ag.Conv2D(x, w, spec)
	if l.B != nil {
		y = ag.BiasAdd(y, l.B)
	}
	return l.Quant.maybeQuantActs(y, training)
}

// Params implements Layer.
func (l *Conv2D) Params() []*Param {
	ps := []*Param{{Name: l.name + ".w", V: l.W, Decay: true}}
	if l.B != nil {
		ps = append(ps, &Param{Name: l.name + ".b", V: l.B})
	}
	return ps
}

// DepthwiseConv2D is a depthwise convolution layer (channel multiplier 1).
type DepthwiseConv2D struct {
	W      *ag.Var // [kh,kw,c]
	B      *ag.Var
	Stride int
	Pad    Padding
	Quant  *LayerQuant
	name   string
}

// NewDepthwiseConv2D constructs a He-initialized depthwise convolution.
func NewDepthwiseConv2D(rng *rand.Rand, name string, kh, kw, c, stride int, pad Padding, bias bool) *DepthwiseConv2D {
	l := &DepthwiseConv2D{
		W:      ag.Param(HeInit(rng, kh*kw, kh, kw, c)),
		Stride: stride,
		Pad:    pad,
		name:   name,
	}
	if bias {
		l.B = ag.Param(tensor.New(c))
	}
	return l
}

// Forward implements Layer.
func (l *DepthwiseConv2D) Forward(x *ag.Var, training bool) *ag.Var {
	spec := l.Pad.spec(l.W.Value.Shape[0], l.W.Value.Shape[1], l.Stride, l.Stride,
		x.Value.Shape[1], x.Value.Shape[2])
	w := l.Quant.maybeQuantWeights(l.W)
	y := ag.DepthwiseConv2D(x, w, spec)
	if l.B != nil {
		y = ag.BiasAdd(y, l.B)
	}
	return l.Quant.maybeQuantActs(y, training)
}

// Params implements Layer.
func (l *DepthwiseConv2D) Params() []*Param {
	ps := []*Param{{Name: l.name + ".w", V: l.W, Decay: true}}
	if l.B != nil {
		ps = append(ps, &Param{Name: l.name + ".b", V: l.B})
	}
	return ps
}

// Dense is a fully connected layer over [n, features] inputs.
type Dense struct {
	W     *ag.Var // [in,out]
	B     *ag.Var
	Quant *LayerQuant
	name  string
}

// NewDense constructs a Glorot-initialized fully connected layer.
func NewDense(rng *rand.Rand, name string, in, out int, bias bool) *Dense {
	l := &Dense{W: ag.Param(GlorotInit(rng, in, out, in, out)), name: name}
	if bias {
		l.B = ag.Param(tensor.New(out))
	}
	return l
}

// Forward implements Layer. 4-D inputs are flattened automatically.
func (l *Dense) Forward(x *ag.Var, training bool) *ag.Var {
	if len(x.Value.Shape) != 2 {
		x = ag.Reshape(x, x.Value.Shape[0], -1)
	}
	w := l.Quant.maybeQuantWeights(l.W)
	y := ag.MatMul(x, w)
	if l.B != nil {
		y = ag.BiasAdd(y, l.B)
	}
	return l.Quant.maybeQuantActs(y, training)
}

// Params implements Layer.
func (l *Dense) Params() []*Param {
	ps := []*Param{{Name: l.name + ".w", V: l.W, Decay: true}}
	if l.B != nil {
		ps = append(ps, &Param{Name: l.name + ".b", V: l.B})
	}
	return ps
}

// BatchNorm keeps running statistics with the given momentum and normalizes
// over all but the channel dimension.
type BatchNorm struct {
	Gamma, Beta *ag.Var
	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor
	Momentum    float32
	Eps         float32
	name        string
}

// NewBatchNorm constructs a BatchNorm layer for c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	return &BatchNorm{
		Gamma:       ag.Param(tensor.New(c).Fill(1)),
		Beta:        ag.Param(tensor.New(c)),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.New(c).Fill(1),
		Momentum:    0.9,
		Eps:         1e-3,
		name:        name,
	}
}

// Forward implements Layer.
func (l *BatchNorm) Forward(x *ag.Var, training bool) *ag.Var {
	if training {
		y, stats := ag.BatchNorm(x, l.Gamma, l.Beta, l.Eps, nil)
		for j := range l.RunningMean.Data {
			l.RunningMean.Data[j] = l.Momentum*l.RunningMean.Data[j] + (1-l.Momentum)*stats.Mean.Data[j]
			l.RunningVar.Data[j] = l.Momentum*l.RunningVar.Data[j] + (1-l.Momentum)*stats.Var.Data[j]
		}
		return y
	}
	y, _ := ag.BatchNorm(x, l.Gamma, l.Beta, l.Eps,
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
		inv := 1 / sqrtf(l.RunningVar.Data[j]+l.Eps)
		scale[j] = l.Gamma.Value.Data[j] * inv
		shift[j] = l.Beta.Value.Data[j] - l.RunningMean.Data[j]*scale[j]
	}
	return scale, shift
}

// Activation applies a fixed nonlinearity.
type Activation struct {
	Kind string // "relu", "relu6", "sigmoid"
}

// Forward implements Layer.
func (l *Activation) Forward(x *ag.Var, training bool) *ag.Var {
	switch l.Kind {
	case "relu":
		return ag.ReLU(x)
	case "relu6":
		return ag.ReLU6(x)
	case "sigmoid":
		return ag.Sigmoid(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %q", l.Kind))
	}
}

// Params implements Layer.
func (l *Activation) Params() []*Param { return nil }

// AvgPool averages over windows.
type AvgPool struct {
	KH, KW, Stride int
	Pad            Padding
}

// Forward implements Layer.
func (l *AvgPool) Forward(x *ag.Var, training bool) *ag.Var {
	spec := l.Pad.spec(l.KH, l.KW, l.Stride, l.Stride, x.Value.Shape[1], x.Value.Shape[2])
	return ag.AvgPool2D(x, spec)
}

// Params implements Layer.
func (l *AvgPool) Params() []*Param { return nil }

// MaxPoolLayer takes the maximum over windows.
type MaxPoolLayer struct {
	KH, KW, Stride int
	Pad            Padding
}

// Forward implements Layer.
func (l *MaxPoolLayer) Forward(x *ag.Var, training bool) *ag.Var {
	spec := l.Pad.spec(l.KH, l.KW, l.Stride, l.Stride, x.Value.Shape[1], x.Value.Shape[2])
	return ag.MaxPool2D(x, spec)
}

// Params implements Layer.
func (l *MaxPoolLayer) Params() []*Param { return nil }

// GlobalAvgPool reduces [n,h,w,c] to [n,c].
type GlobalAvgPool struct{}

// Forward implements Layer.
func (l *GlobalAvgPool) Forward(x *ag.Var, training bool) *ag.Var {
	return ag.GlobalAvgPool(x)
}

// Params implements Layer.
func (l *GlobalAvgPool) Params() []*Param { return nil }

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

// Residual wraps a body with an identity (or pooled) shortcut: the parallel
// skip-connection structure the paper adds to each depthwise-separable
// block so DNAS can choose network depth.
type Residual struct {
	Body Layer
	// Shortcut transforms the input to match the body output shape; nil
	// means identity.
	Shortcut Layer
}

// Forward implements Layer.
func (l *Residual) Forward(x *ag.Var, training bool) *ag.Var {
	y := l.Body.Forward(x, training)
	s := x
	if l.Shortcut != nil {
		s = l.Shortcut.Forward(x, training)
	}
	return ag.Add(y, s)
}

// Params implements Layer.
func (l *Residual) Params() []*Param {
	ps := l.Body.Params()
	if l.Shortcut != nil {
		ps = append(ps, l.Shortcut.Params()...)
	}
	return ps
}
