package graph

import (
	"fmt"
	"math"
	"slices"

	"micronets/internal/arch"
	ag "micronets/internal/autograd"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

// Export converts a trained float model (built by arch.Build from the same
// spec) into a deployable int8/int4 Model: BatchNorm layers are folded into
// the preceding convolutions, weights are quantized per-output-channel
// symmetric, and activation ranges are calibrated by running the model on
// the provided calibration batch — the standard TFLite post-QAT export the
// paper relies on.
func Export(spec *arch.Spec, model *nn.Sequential, calib *tensor.Tensor, opts LowerOptions) (*Model, error) {
	e := &exporter{
		layers: flatten(model.Layers, nil),
		batch:  calib.Shape[0],
		// The walker's input tensor is tensor 0.
		acts: map[int]*ag.Var{0: ag.Constant(calib)},
	}
	m, err := lower(spec, opts, e)
	if err != nil {
		return nil, err
	}
	if e.pos != len(e.layers) {
		return nil, fmt.Errorf("graph: %s: %d trained layers left over after export", spec.Name, len(e.layers)-e.pos)
	}
	return m, nil
}

// exporter is Export's source: it runs the calibration batch through the
// trained layers as the walker meets them and quantizes what it finds.
type exporter struct {
	layers []nn.Layer // the trained model, flattened
	pos    int
	batch  int
	acts   map[int]*ag.Var // float activation of each tensor, by tensor ID
}

// flatten appends layers to out with Residual and Sequential bodies
// inlined and Dropout (an identity at deployment) dropped: the order in
// which the walker meets the trained layers.
func flatten(layers, out []nn.Layer) []nn.Layer {
	for _, l := range layers {
		switch v := l.(type) {
		case *nn.Sequential:
			out = flatten(v.Layers, out)
		case *nn.Residual:
			out = flatten([]nn.Layer{v.Body}, out)
		case *nn.Dropout:
		default:
			out = append(out, l)
		}
	}
	return out
}

// pop takes the next trained layer, which must be a T.
func pop[T nn.Layer](e *exporter) (T, error) {
	var l T
	if e.pos == len(e.layers) {
		return l, fmt.Errorf("ran out of trained layers")
	}
	l, ok := e.layers[e.pos].(T)
	if !ok {
		return l, fmt.Errorf("expected %T, got %T", l, e.layers[e.pos])
	}
	e.pos++
	return l, nil
}

func (e *exporter) input(actBits int) (float32, int32) {
	lo, hi := rangeOfT(e.acts[0].Value)
	return quantParams(lo, hi, actBits)
}

func (e *exporter) fill(l *arch.LayerInfo, op *Op, m *Model) error {
	x := e.acts[op.Inputs[len(op.Inputs)-1]]
	var y *ag.Var
	switch l.Kind {
	case "conv", "dwconv", "dense":
		var err error
		if y, err = e.weighted(l, op, m, x); err != nil {
			return err
		}
	case "avgpool", "maxpool":
		p, err := pop[nn.Layer](e)
		if err != nil {
			return err
		}
		var kind string
		switch p.(type) {
		case *nn.AvgPool, *nn.GlobalAvgPool:
			kind = "avgpool"
		case *nn.MaxPoolLayer:
			kind = "maxpool"
		}
		if kind != l.Kind {
			return fmt.Errorf("expected a %s layer, got %T", l.Kind, p)
		}
		y = p.Forward(x, false)
	case "add":
		y = ag.Add(x, e.acts[op.Inputs[0]])
		quantOut(l, op, m.Tensors[op.Output], y)
	default:
		return fmt.Errorf("%s layers cannot be exported", l.Kind)
	}
	if y.Value.Len() != e.batch*int(l.OutBytes()) {
		return fmt.Errorf("trained output %v does not match %dx%dx%d", y.Value.Shape, l.OutH, l.OutW, l.OutC)
	}
	e.acts[op.Output] = y
	return nil
}

// weighted pops a trained conv, depthwise conv or dense layer, the
// BatchNorm a convolution carries and the activation unless l is linear,
// runs them, and fills op with the BatchNorm-folded quantized weights, the
// bias and the calibrated output range.
func (e *exporter) weighted(l *arch.LayerInfo, op *Op, m *Model, x *ag.Var) (*ag.Var, error) {
	var (
		w           *tensor.Tensor
		y           *ag.Var
		fold, shift []float32 // per output channel; nil folds nothing
	)
	switch l.Kind {
	case "conv":
		c, err := pop[*nn.Conv2D](e)
		if err != nil {
			return nil, err
		}
		w, y = c.W.Value, c.Forward(x, false)
	case "dwconv":
		d, err := pop[*nn.DepthwiseConv2D](e)
		if err != nil {
			return nil, err
		}
		w, y = d.W.Value, d.Forward(x, false)
	case "dense":
		d, err := pop[*nn.Dense](e)
		if err != nil {
			return nil, err
		}
		w, y = d.W.Value, d.Forward(x, false)
		if d.B != nil {
			shift = d.B.Value.Data
		}
	}
	if l.Kind != "dense" {
		bn, err := pop[*nn.BatchNorm](e)
		if err != nil {
			return nil, err
		}
		y = bn.Forward(y, false)
		if fold, shift = bn.FoldedScaleShift(); len(fold) != l.OutC {
			return nil, fmt.Errorf("BN channels %d != layer out %d", len(fold), l.OutC)
		}
	}
	if l.Act != "linear" {
		act, err := pop[*nn.Activation](e)
		if err != nil {
			return nil, err
		}
		if act.Kind != l.Act {
			return nil, fmt.Errorf("trained activation %s, layer wants %s", act.Kind, l.Act)
		}
		y = act.Forward(y, false)
	}
	if int64(w.Len()) != l.Params {
		return nil, fmt.Errorf("trained weights %v, layer wants %d", w.Shape, l.Params)
	}
	op.Weights, op.WeightScales = quantWeights(w.Data, fold, l.OutC, l.Kind == "dense", op.WeightBits)
	inScale := m.Tensors[op.Inputs[0]].Scale
	op.Bias = make([]int32, l.OutC)
	for oc, v := range shift {
		op.Bias[oc] = int32(math.Round(float64(v / (inScale * op.WeightScales[oc]))))
	}
	quantOut(l, op, m.Tensors[op.Output], y)
	return y, nil
}

// quantWeights folds w (output channel innermost) by fold, if any, and
// quantizes it symmetrically: one scale per output channel, or one for
// the whole tensor (perTensor, as CMSIS-NN quantizes fully connected
// layers).
func quantWeights(w, fold []float32, outC int, perTensor bool, bits int) ([]int8, []float32) {
	_, hi := clampRange(bits)
	qmax := float32(hi)
	folded := make([]float32, len(w))
	chMax := make([]float32, outC)
	for i, v := range w {
		if fold != nil {
			v *= fold[i%outC]
		}
		folded[i] = v
		if a := absf(v); a > chMax[i%outC] {
			chMax[i%outC] = a
		}
	}
	if perTensor {
		all := slices.Max(chMax)
		for oc := range chMax {
			chMax[oc] = all
		}
	}
	scales := make([]float32, outC)
	for oc := range scales {
		if chMax[oc] == 0 {
			chMax[oc] = 1e-6
		}
		scales[oc] = chMax[oc] / qmax
	}
	wq := make([]int8, len(folded))
	for i, f := range folded {
		wq[i] = quantClamp(f/scales[i%outC], bits)
	}
	return wq, scales
}

// quantOut sets out's scale and zero point from y's calibrated range and
// narrows op's clamp to l's fused activation.
func quantOut(l *arch.LayerInfo, op *Op, out *Tensor, y *ag.Var) {
	lo, hi := rangeOfT(y.Value)
	if l.Act == "relu6" && hi > 6 {
		hi = 6
	}
	out.Scale, out.ZeroPoint = quantParams(lo, hi, out.Bits)
	if l.Act != "linear" && out.ZeroPoint > op.ClampMin {
		op.ClampMin = out.ZeroPoint
	}
	if l.Act == "relu6" {
		op.ClampMax = min(op.ClampMax, out.ZeroPoint+int32(math.Round(float64(6/out.Scale))))
	}
}

func quantClamp(v float32, bits int) int8 {
	lo, hi := clampRange(bits)
	return int8(min(max(int32(math.Round(float64(v))), lo), hi))
}

func rangeOfT(t *tensor.Tensor) (float32, float32) {
	lo, hi := tensor.Min(t), tensor.Max(t)
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi == lo {
		hi = lo + 1e-6
	}
	return lo, hi
}

// quantParams computes an affine (scale, zeroPoint) covering [lo, hi] with
// the quantized grid of the given bit width, zero exactly representable.
func quantParams(lo, hi float32, bits int) (float32, int32) {
	qmin, qmax := clampRange(bits)
	scale := (hi - lo) / float32(qmax-qmin)
	if scale <= 0 {
		scale = 1e-6
	}
	zp := int32(math.Round(float64(float32(qmin) - lo/scale)))
	if zp < qmin {
		zp = qmin
	}
	if zp > qmax {
		zp = qmax
	}
	return scale, zp
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
