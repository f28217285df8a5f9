package arch

import (
	"fmt"
	"math/rand"

	"micronets/internal/nn"
)

// BuildOptions configures trainable-model construction from a Spec.
type BuildOptions struct {
	// QuantWeightBits/QuantActBits enable quantization-aware training when
	// non-zero (8 for the paper's standard models, 4 for the sub-byte
	// study).
	QuantWeightBits int
	QuantActBits    int
	// DropoutRng supplies randomness for dropout layers (required if the
	// spec contains Dropout blocks and training is used).
	DropoutRng *rand.Rand
}

// Build constructs a trainable float model from the spec. The model mirrors
// the deployment lowering: Conv/DSBlock/IBN blocks get BatchNorm+ReLU (or
// ReLU6 for IBN) exactly where the int8 runtime folds them.
func Build(rng *rand.Rand, s *Spec, opts BuildOptions) (*nn.Sequential, error) {
	if _, err := s.Analyze(); err != nil {
		return nil, err
	}
	model := nn.NewSequential()
	h, w, c := s.InputH, s.InputW, s.InputC
	newQuant := func() *nn.LayerQuant {
		if opts.QuantWeightBits == 0 && opts.QuantActBits == 0 {
			return nil
		}
		return nn.NewLayerQuant(opts.QuantWeightBits, opts.QuantActBits)
	}
	for i, b := range s.Blocks {
		stride := b.Stride
		if stride == 0 {
			stride = 1
		}
		name := fmt.Sprintf("b%d", i)
		switch b.Kind {
		case Conv:
			conv := nn.NewConv2D(rng, name+".conv", b.KH, b.KW, c, b.OutC, stride, nn.PadSame, false)
			conv.Quant = newQuant()
			model.Add(conv).
				Add(nn.NewBatchNorm(name+".bn", b.OutC)).
				Add(&nn.Activation{Kind: "relu"})
			h, w, c = sameOut(h, stride), sameOut(w, stride), b.OutC
		case DSBlock:
			dw := nn.NewDepthwiseConv2D(rng, name+".dw", b.KH, b.KW, c, stride, nn.PadSame, false)
			dw.Quant = newQuant()
			pw := nn.NewConv2D(rng, name+".pw", 1, 1, c, b.OutC, 1, nn.PadSame, false)
			pw.Quant = newQuant()
			model.Add(dw).
				Add(nn.NewBatchNorm(name+".dwbn", c)).
				Add(&nn.Activation{Kind: "relu"}).
				Add(pw).
				Add(nn.NewBatchNorm(name+".pwbn", b.OutC)).
				Add(&nn.Activation{Kind: "relu"})
			h, w, c = sameOut(h, stride), sameOut(w, stride), b.OutC
		case IBN:
			kh, kw := b.KH, b.KW
			if kh == 0 {
				kh, kw = 3, 3
			}
			exp := nn.NewConv2D(rng, name+".exp", 1, 1, c, b.Expand, 1, nn.PadSame, false)
			exp.Quant = newQuant()
			dw := nn.NewDepthwiseConv2D(rng, name+".dw", kh, kw, b.Expand, stride, nn.PadSame, false)
			dw.Quant = newQuant()
			proj := nn.NewConv2D(rng, name+".proj", 1, 1, b.Expand, b.OutC, 1, nn.PadSame, false)
			proj.Quant = newQuant()
			body := nn.NewSequential(
				exp, nn.NewBatchNorm(name+".expbn", b.Expand), &nn.Activation{Kind: "relu6"},
				dw, nn.NewBatchNorm(name+".dwbn", b.Expand), &nn.Activation{Kind: "relu6"},
				proj, nn.NewBatchNorm(name+".projbn", b.OutC),
			)
			if stride == 1 && b.OutC == c {
				model.Add(&nn.Residual{Body: body})
			} else {
				model.Add(body)
			}
			h, w, c = sameOut(h, stride), sameOut(w, stride), b.OutC
		case AvgPool:
			model.Add(&nn.AvgPool{KH: b.KH, KW: b.KW, Stride: stride, Pad: nn.PadValid})
			h, w = validOut(h, b.KH, stride), validOut(w, b.KW, stride)
		case MaxPool:
			model.Add(&nn.MaxPoolLayer{KH: b.KH, KW: b.KW, Stride: stride, Pad: nn.PadValid})
			h, w = validOut(h, b.KH, stride), validOut(w, b.KW, stride)
		case GlobalPool:
			model.Add(&nn.GlobalAvgPool{})
			h, w = 1, 1
		case Dense, DenseReLU:
			in := h * w * c
			d := nn.NewDense(rng, name+".fc", in, b.OutC, true)
			d.Quant = newQuant()
			model.Add(d)
			if b.Kind == DenseReLU {
				model.Add(&nn.Activation{Kind: "relu"})
			}
			h, w, c = 1, 1, b.OutC
		case Dropout:
			if opts.DropoutRng == nil {
				opts.DropoutRng = rand.New(rand.NewSource(0))
			}
			model.Add(&nn.Dropout{Rate: b.Rate, Rng: opts.DropoutRng})
		case TransposedConv:
			return nil, fmt.Errorf("arch: %s: training transposed convolutions is not supported by the Go trainer", s.Name)
		default:
			return nil, fmt.Errorf("arch: %s block %d: unknown kind %v", s.Name, i, b.Kind)
		}
	}
	return model, nil
}
