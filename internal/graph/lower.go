package graph

import (
	"fmt"
	"math/rand"

	"micronets/internal/arch"
	"micronets/internal/tensor"
)

// LowerOptions configures structural lowering.
type LowerOptions struct {
	// WeightBits / ActBits select the datatype study (8 default, 4 for the
	// sub-byte kernels of §5.1.3).
	WeightBits int
	ActBits    int
	// AppendSoftmax adds a softmax head for classifiers.
	AppendSoftmax bool
}

// FromSpec lowers an architecture to a deployable Model with synthetic
// (random) weights and plausible quantization parameters. This is the path
// used for hardware characterization (Figures 3-5), where only shapes and
// datatypes matter; trained exports go through Export.
func FromSpec(spec *arch.Spec, rng *rand.Rand, opts LowerOptions) (*Model, error) {
	return lower(spec, opts, synthetic{rng})
}

// source is what FromSpec and Export lower differently: the input
// quantization, a weighted layer's int8 weights, scales and bias, and the
// output quantization of a weighted or add layer.
type source interface {
	// input returns the scale and zero point of the model input.
	input(actBits int) (float32, int32)
	// fill completes op, which the walker built for l with its geometry,
	// datatypes, full clamp range and an output tensor carrying the input
	// tensor's quantization (what a pool keeps).
	fill(l *arch.LayerInfo, op *Op, m *Model) error
}

// opKinds maps an arch.LayerInfo kind to the op it lowers to.
var opKinds = map[string]OpKind{
	"conv": OpConv2D, "dwconv": OpDWConv2D, "dense": OpDense,
	"avgpool": OpAvgPool, "maxpool": OpMaxPool, "add": OpAdd, "tconv": OpTransposedConv,
}

// lower is the one walker behind FromSpec and Export: it emits one op per
// layer of spec.Analyze(), in order, plus the optional softmax head. An
// add reads the output of the layer before it and the input of its block.
func lower(spec *arch.Spec, opts LowerOptions, src source) (*Model, error) {
	a, err := spec.Analyze()
	if err != nil {
		return nil, err
	}
	if opts.WeightBits == 0 {
		opts.WeightBits = 8
	}
	if opts.ActBits == 0 {
		opts.ActBits = 8
	}
	b := &builder{model: &Model{Name: spec.Name}, opts: opts}
	scale, zp := src.input(opts.ActBits)
	cur := b.addTensor("input", spec.InputH, spec.InputW, spec.InputC, scale, zp)
	b.model.Input = cur
	blockIn, block := cur, -1
	for i := range a.Layers {
		l := &a.Layers[i]
		if l.BlockIdx != block {
			blockIn, block = cur, l.BlockIdx
		}
		op := b.emit(l, cur, blockIn)
		if err := src.fill(l, op, b.model); err != nil {
			return nil, fmt.Errorf("graph: %s layer %s: %w", spec.Name, l.Name, err)
		}
		cur = op.Output
	}
	if opts.AppendSoftmax && spec.NumClasses > 1 {
		cur = b.softmax("softmax", cur)
	}
	b.model.Output = cur
	if err := b.model.Validate(); err != nil {
		return nil, err
	}
	return b.model, nil
}

type builder struct {
	model *Model
	opts  LowerOptions
}

func (b *builder) addTensor(name string, h, w, c int, scale float32, zp int32) int {
	t := &Tensor{
		ID: len(b.model.Tensors), Name: name, H: h, W: w, C: c,
		Scale: scale, ZeroPoint: zp, Bits: b.opts.ActBits,
	}
	b.model.Tensors = append(b.model.Tensors, t)
	return t.ID
}

// emit appends layer l's op, reading tensor cur (an add also reads
// blockIn), and its output tensor, with everything the LayerInfo decides.
func (b *builder) emit(l *arch.LayerInfo, cur, blockIn int) *Op {
	in := b.model.Tensors[cur]
	out := b.addTensor(l.Name+"_out", l.OutH, l.OutW, l.OutC, in.Scale, in.ZeroPoint)
	lo, hi := clampRange(b.opts.ActBits)
	op := &Op{
		Kind: opKinds[l.Kind], Name: l.Name, Inputs: []int{cur}, Output: out,
		KH: l.KH, KW: l.KW, SH: l.Stride, SW: l.Stride,
		ClampMin: lo, ClampMax: hi,
	}
	if l.Params > 0 {
		op.WeightBits = b.opts.WeightBits
	}
	switch op.Kind {
	case OpConv2D, OpDWConv2D:
		pad := tensor.Same(l.KH, l.KW, l.Stride, l.Stride, l.InH, l.InW)
		op.PadTop, op.PadLeft, op.PadBottom, op.PadRight = pad.PadTop, pad.PadLeft, pad.PadBottom, pad.PadRight
	case OpAdd:
		op.Inputs = []int{blockIn, cur}
	case OpTransposedConv:
		op.ClampMin, op.ClampMax = -128, 127
	}
	b.model.Ops = append(b.model.Ops, op)
	return op
}

func (b *builder) softmax(name string, in int) int {
	it := b.model.Tensors[in]
	// TFLite softmax output: scale 1/256, zero point -128.
	out := b.addTensor(name+"_out", it.H, it.W, it.C, 1.0/256, -128)
	b.model.Tensors[out].Bits = 8
	op := &Op{Kind: OpSoftmax, Name: name, Inputs: []int{in}, Output: out,
		ClampMin: -128, ClampMax: 127}
	b.model.Ops = append(b.model.Ops, op)
	return out
}

// synthetic is FromSpec's source: seeded random weights, one rng.Intn per
// weight byte then one rng.Float32 per output channel, and fixed plausible
// output scales.
type synthetic struct{ rng *rand.Rand }

func (synthetic) input(int) (float32, int32) { return 0.05, -128 }

func (s synthetic) fill(l *arch.LayerInfo, op *Op, m *Model) error {
	out := m.Tensors[op.Output]
	switch op.Kind {
	case OpAvgPool, OpMaxPool:
		return nil
	case OpAdd:
		out.Scale, out.ZeroPoint = 0.05, 0
		return nil
	case OpDense:
		out.Scale = 0.1
	default:
		out.Scale = 0.03
	}
	out.ZeroPoint = 0
	if l.Act != "linear" {
		out.ZeroPoint = actZeroPoint(out.Bits)
	}
	op.Weights = randWeights(s.rng, int(l.Params))
	op.WeightScales = randScales(s.rng, l.OutC)
	op.Bias = make([]int32, l.OutC)
	return nil
}

func randWeights(rng *rand.Rand, n int) []int8 {
	w := make([]int8, n)
	for i := range w {
		w[i] = int8(rng.Intn(255) - 127)
	}
	return w
}

func randScales(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = 0.002 + rng.Float32()*0.004
	}
	return s
}

func clampRange(bits int) (int32, int32) {
	if bits == 4 {
		return -8, 7
	}
	return -128, 127
}

// actZeroPoint is the zero point of post-ReLU activation tensors: the
// low end of the clamp range, so the whole quantized range encodes
// non-negative values.
func actZeroPoint(bits int) int32 {
	lo, _ := clampRange(bits)
	return lo
}
