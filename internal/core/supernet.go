package core

import (
	"fmt"
	"math/rand"

	"micronets/internal/arch"
	ag "micronets/internal/autograd"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

// SupernetBlock configures one searchable depthwise-separable block.
type SupernetBlock struct {
	// Stride of the depthwise convolution.
	Stride int
	// WidthOptions are the candidate output widths (effective channels).
	WidthOptions []int
	// Skippable adds the parallel identity/pooling shortcut so DNAS can
	// drop the block entirely (depth search, §5.2.2). Stride-2 blocks are
	// conventionally non-skippable so the spatial schedule is preserved.
	Skippable bool
}

// SupernetConfig describes a DS-CNN supernet: the relaxation of a Space,
// built by Space.Supernet.
type SupernetConfig struct {
	// Space is the discrete space the supernet relaxes; it fixes the
	// input geometry, first conv kernel, pool and classifier.
	Space *Space

	// FirstWidthOptions are the first conv's candidate widths.
	FirstWidthOptions []int

	// MaxC is the physical channel width of every block (the largest
	// option); masking realizes narrower choices.
	MaxC int

	Blocks []SupernetBlock
}

// Supernet is the trainable search network: shared weights at maximal
// width plus one DecisionNode per width/depth choice.
type Supernet struct {
	cfg SupernetConfig

	firstConv *nn.Conv2D
	firstBN   *nn.BatchNorm
	firstNode *DecisionNode

	dw    []*nn.DepthwiseConv2D
	dwBN  []*nn.BatchNorm
	pw    []*nn.Conv2D
	pwBN  []*nn.BatchNorm
	width []*DecisionNode
	depth []*DecisionNode // nil when not skippable

	fc *nn.Dense
}

// NewSupernet builds the supernet with He-initialized shared weights.
func NewSupernet(rng *rand.Rand, cfg SupernetConfig) (*Supernet, error) {
	if cfg.Space == nil || cfg.MaxC <= 0 {
		return nil, fmt.Errorf("core: a supernet needs a Space and MaxC > 0")
	}
	firstMax := cfg.FirstWidthOptions[len(cfg.FirstWidthOptions)-1]
	if firstMax != cfg.MaxC {
		return nil, fmt.Errorf("core: first conv max width %d must equal MaxC %d (uniform physical width)", firstMax, cfg.MaxC)
	}
	sp := cfg.Space
	s := &Supernet{
		cfg:       cfg,
		firstConv: nn.NewConv2D(rng, "first", sp.FirstKH, sp.FirstKW, sp.InputC, cfg.MaxC, sp.FirstStride, nn.PadSame, false),
		firstBN:   nn.NewBatchNorm("first.bn", cfg.MaxC),
		firstNode: NewDecisionNode("first.width", len(cfg.FirstWidthOptions)),
	}
	for i, b := range cfg.Blocks {
		bm := b.WidthOptions[len(b.WidthOptions)-1]
		if bm != cfg.MaxC {
			return nil, fmt.Errorf("core: block %d max width %d must equal MaxC %d", i, bm, cfg.MaxC)
		}
		name := fmt.Sprintf("b%d", i)
		s.dw = append(s.dw, nn.NewDepthwiseConv2D(rng, name+".dw", 3, 3, cfg.MaxC, b.Stride, nn.PadSame, false))
		s.dwBN = append(s.dwBN, nn.NewBatchNorm(name+".dwbn", cfg.MaxC))
		s.pw = append(s.pw, nn.NewConv2D(rng, name+".pw", 1, 1, cfg.MaxC, cfg.MaxC, 1, nn.PadSame, false))
		s.pwBN = append(s.pwBN, nn.NewBatchNorm(name+".pwbn", cfg.MaxC))
		s.width = append(s.width, NewDecisionNode(name+".width", len(b.WidthOptions)))
		if b.Skippable && b.Stride == 1 {
			s.depth = append(s.depth, NewDecisionNode(name+".depth", 2))
		} else {
			s.depth = append(s.depth, nil)
		}
	}
	// Classifier input is the pooled MaxC vector.
	s.fc = nn.NewDense(rng, "fc", cfg.MaxC, sp.NumClasses, true)
	return s, nil
}

// WeightParams returns the shared network weights (trained on the train
// split).
func (s *Supernet) WeightParams() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, s.firstConv.Params()...)
	ps = append(ps, s.firstBN.Params()...)
	for i := range s.dw {
		ps = append(ps, s.dw[i].Params()...)
		ps = append(ps, s.dwBN[i].Params()...)
		ps = append(ps, s.pw[i].Params()...)
		ps = append(ps, s.pwBN[i].Params()...)
	}
	ps = append(ps, s.fc.Params()...)
	return ps
}

// ArchParams returns the architecture logits (trained on the val split).
func (s *Supernet) ArchParams() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, &nn.Param{Name: s.firstNode.Name, V: s.firstNode.Alpha})
	for i := range s.width {
		ps = append(ps, &nn.Param{Name: s.width[i].Name, V: s.width[i].Alpha})
		if s.depth[i] != nil {
			ps = append(ps, &nn.Param{Name: s.depth[i].Name, V: s.depth[i].Alpha})
		}
	}
	return ps
}

// Resources aggregates the differentiable resource model of a forward
// pass: expected parameter count, op count, and the per-node working
// memory terms whose max is the SRAM model (§5.1.1, §5.1.2).
type Resources struct {
	// ParamCount is the expected number of weights (eq. 2 summed).
	ParamCount *ag.Var
	// OpCount is the expected MAC*2 count (the latency proxy).
	OpCount *ag.Var
	// WorkMemTerms are per-node (inputs+outputs) element counts; SRAM
	// working memory is their maximum (the SpArSe model).
	WorkMemTerms []*ag.Var
}

// WorkingMemory returns the differentiable max over node working-memory
// terms.
func (r *Resources) WorkingMemory() *ag.Var {
	return ag.MaxN(r.WorkMemTerms...)
}

// Forward runs the supernet, returning classifier logits and the resource
// model tied to the same architecture sample. rng enables Gumbel sampling
// (nil for deterministic softmax weights); tau is the relaxation
// temperature.
func (s *Supernet) Forward(x *ag.Var, training bool, rng *rand.Rand, tau float32) (*ag.Var, *Resources) {
	cfg, sp := s.cfg, s.cfg.Space
	res := &Resources{
		ParamCount: ag.Constant(tensor.Scalar(0)),
		OpCount:    ag.Constant(tensor.Scalar(0)),
	}
	h, w := sp.InputH, sp.InputW

	// First conv.
	zFirst := s.firstNode.Weights(rng, tau)
	y := s.firstConv.Forward(x, training)
	y = s.firstBN.Forward(y, training)
	y = ag.ReLU(y)
	mask := channelMask(zFirst, cfg.FirstWidthOptions, cfg.MaxC)
	y = ag.ChannelScale(y, mask)
	ePrev := ExpectedChannels(zFirst, cfg.FirstWidthOptions)
	oh, ow := tensor.SameOut(h, sp.FirstStride), tensor.SameOut(w, sp.FirstStride)
	inElems := float32(h * w * sp.InputC)
	kArea := float32(sp.FirstKH * sp.FirstKW * sp.InputC)
	res.ParamCount = ag.Add(res.ParamCount, ag.Scale(ePrev, kArea))
	res.OpCount = ag.Add(res.OpCount, ag.Scale(ePrev, 2*float32(oh*ow)*kArea))
	res.WorkMemTerms = append(res.WorkMemTerms,
		ag.AddScalar(ag.Scale(ePrev, float32(oh*ow)), inElems))
	h, w = oh, ow

	for i := range s.dw {
		blk := cfg.Blocks[i]
		zW := s.width[i].Weights(rng, tau)
		oh, ow = tensor.SameOut(h, blk.Stride), tensor.SameOut(w, blk.Stride)

		body := s.dw[i].Forward(y, training)
		body = s.dwBN[i].Forward(body, training)
		body = ag.ReLU(body)
		body = s.pw[i].Forward(body, training)
		body = s.pwBN[i].Forward(body, training)
		body = ag.ReLU(body)
		mask := channelMask(zW, blk.WidthOptions, cfg.MaxC)
		body = ag.ChannelScale(body, mask)
		eOut := ExpectedChannels(zW, blk.WidthOptions)

		// Differentiable costs for this block (dw then pw), scaled later
		// by the depth keep-probability when skippable.
		// dw params: 9*E[cin]; dw macs: oh*ow*9*E[cin].
		// pw params: E[cin]*E[cout]; pw macs: oh*ow*E[cin]*E[cout].
		dwParams := ag.Scale(ePrev, 9)
		dwOps := ag.Scale(ePrev, 2*9*float32(oh*ow))
		pwCross := ag.Mul(ePrev, eOut)
		pwOps := ag.Scale(pwCross, 2*float32(oh*ow))
		blockParams := ag.Add(dwParams, pwCross)
		blockOps := ag.Add(dwOps, pwOps)
		// Working memory: dw node sees (h*w + oh*ow)*E[cin]; pw node sees
		// oh*ow*(E[cin]+E[cout]).
		dwMem := ag.Scale(ePrev, float32(h*w+oh*ow))
		pwMem := ag.Scale(ag.Add(ePrev, eOut), float32(oh*ow))

		if s.depth[i] != nil {
			zD := s.depth[i].Weights(rng, tau)
			zKeep := ag.Index(zD, 0)
			zSkip := ag.Index(zD, 1)
			// Shortcut: identity (stride is 1 for skippable blocks).
			y = ag.Add(ag.ScalarMul(zKeep, body), ag.ScalarMul(zSkip, y))
			res.ParamCount = ag.Add(res.ParamCount, ag.ScalarMul(zKeep, blockParams))
			res.OpCount = ag.Add(res.OpCount, ag.ScalarMul(zKeep, blockOps))
			res.WorkMemTerms = append(res.WorkMemTerms,
				ag.ScalarMul(zKeep, dwMem), ag.ScalarMul(zKeep, pwMem))
			// Expected output width blends kept and skipped widths.
			eOut = ag.Add(ag.ScalarMul(zKeep, eOut), ag.ScalarMul(zSkip, ePrev))
		} else {
			y = body
			res.ParamCount = ag.Add(res.ParamCount, blockParams)
			res.OpCount = ag.Add(res.OpCount, blockOps)
			res.WorkMemTerms = append(res.WorkMemTerms, dwMem, pwMem)
		}
		ePrev = eOut
		h, w = oh, ow
	}

	// Final pool + classifier.
	y = ag.AvgPool2D(y, tensor.ConvSpec{KH: sp.PoolKH, KW: sp.PoolKW, SH: 1, SW: 1})
	y = ag.Reshape(y, y.Value.Shape[0], -1)
	logits := s.fc.Forward(y, training)
	fcParams := ag.Scale(ePrev, float32(sp.NumClasses))
	res.ParamCount = ag.Add(res.ParamCount, fcParams)
	res.OpCount = ag.Add(res.OpCount, ag.Scale(fcParams, 2))
	return logits, res
}

// Discretize reads the decision nodes and emits the selected architecture
// as an arch.Spec of the supernet's space, ready for final training and
// deployment.
func (s *Supernet) Discretize(name string) *arch.Spec {
	widths := []int{s.cfg.FirstWidthOptions[s.firstNode.ArgMax()]}
	for i, b := range s.cfg.Blocks {
		if s.depth[i] != nil && s.depth[i].ArgMax() == 1 {
			continue // block skipped
		}
		widths = append(widths, b.WidthOptions[s.width[i].ArgMax()])
	}
	spec := s.cfg.Space.Build(name, widths)
	spec.Source = "repro"
	return spec
}
