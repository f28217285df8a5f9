package core

import (
	"fmt"
	"math/rand"

	"micronets/internal/arch"
	ag "micronets/internal/autograd"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

// IBN supernet: the visual-wake-words search space of §5.2.1. The backbone
// is MobileNetV2; DNAS searches "the width of the first and last
// convolutions in each IBN" between 10% and 100% of the reference width.
// Physically each IBN runs at its maximal expansion/compression widths and
// the decision nodes mask channels, exactly as in the DS supernet.

// IBNSupernetBlock configures one searchable inverted bottleneck.
type IBNSupernetBlock struct {
	Stride int
	// MaxExpand / MaxOut are the physical (100%) widths.
	MaxExpand, MaxOut int
	// ExpandOptions / OutOptions are the searched effective widths; the
	// last entry must equal the corresponding max.
	ExpandOptions, OutOptions []int
}

// IBNSupernetConfig describes the full VWW search space.
type IBNSupernetConfig struct {
	Name                   string
	InputH, InputW, InputC int
	NumClasses             int
	// Stem convolution (width searched like the paper's "convolutions
	// preceding and following the sequence of IBN blocks").
	StemMax     int
	StemOptions []int
	Blocks      []IBNSupernetBlock
	// HeadMax / HeadOptions configure the final 1x1 convolution.
	HeadMax     int
	HeadOptions []int
}

// IBNSupernet is the trainable VWW search network.
type IBNSupernet struct {
	cfg IBNSupernetConfig

	stem     *nn.Conv2D
	stemBN   *nn.BatchNorm
	stemNode *DecisionNode

	exp    []*nn.Conv2D
	expBN  []*nn.BatchNorm
	dw     []*nn.DepthwiseConv2D
	dwBN   []*nn.BatchNorm
	proj   []*nn.Conv2D
	projBN []*nn.BatchNorm

	expNode []*DecisionNode
	outNode []*DecisionNode

	head     *nn.Conv2D
	headBN   *nn.BatchNorm
	headNode *DecisionNode
	fc       *nn.Dense
}

// NewIBNSupernet builds the supernet.
func NewIBNSupernet(rng *rand.Rand, cfg IBNSupernetConfig) (*IBNSupernet, error) {
	if len(cfg.StemOptions) == 0 || cfg.StemOptions[len(cfg.StemOptions)-1] != cfg.StemMax {
		return nil, fmt.Errorf("core: stem options must end at StemMax")
	}
	s := &IBNSupernet{
		cfg:      cfg,
		stem:     nn.NewConv2D(rng, "stem", 3, 3, cfg.InputC, cfg.StemMax, 2, nn.PadSame, false),
		stemBN:   nn.NewBatchNorm("stem.bn", cfg.StemMax),
		stemNode: NewDecisionNode("stem.width", len(cfg.StemOptions)),
	}
	inC := cfg.StemMax
	for i, b := range cfg.Blocks {
		if b.ExpandOptions[len(b.ExpandOptions)-1] != b.MaxExpand ||
			b.OutOptions[len(b.OutOptions)-1] != b.MaxOut {
			return nil, fmt.Errorf("core: block %d options must end at their max widths", i)
		}
		name := fmt.Sprintf("ibn%d", i)
		s.exp = append(s.exp, nn.NewConv2D(rng, name+".exp", 1, 1, inC, b.MaxExpand, 1, nn.PadSame, false))
		s.expBN = append(s.expBN, nn.NewBatchNorm(name+".expbn", b.MaxExpand))
		s.dw = append(s.dw, nn.NewDepthwiseConv2D(rng, name+".dw", 3, 3, b.MaxExpand, b.Stride, nn.PadSame, false))
		s.dwBN = append(s.dwBN, nn.NewBatchNorm(name+".dwbn", b.MaxExpand))
		s.proj = append(s.proj, nn.NewConv2D(rng, name+".proj", 1, 1, b.MaxExpand, b.MaxOut, 1, nn.PadSame, false))
		s.projBN = append(s.projBN, nn.NewBatchNorm(name+".projbn", b.MaxOut))
		s.expNode = append(s.expNode, NewDecisionNode(name+".expw", len(b.ExpandOptions)))
		s.outNode = append(s.outNode, NewDecisionNode(name+".outw", len(b.OutOptions)))
		inC = b.MaxOut
	}
	s.head = nn.NewConv2D(rng, "head", 1, 1, inC, cfg.HeadMax, 1, nn.PadSame, false)
	s.headBN = nn.NewBatchNorm("head.bn", cfg.HeadMax)
	s.headNode = NewDecisionNode("head.width", len(cfg.HeadOptions))
	s.fc = nn.NewDense(rng, "fc", cfg.HeadMax, cfg.NumClasses, true)
	return s, nil
}

// WeightParams returns the shared weights.
func (s *IBNSupernet) WeightParams() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, s.stem.Params()...)
	ps = append(ps, s.stemBN.Params()...)
	for i := range s.exp {
		ps = append(ps, s.exp[i].Params()...)
		ps = append(ps, s.expBN[i].Params()...)
		ps = append(ps, s.dw[i].Params()...)
		ps = append(ps, s.dwBN[i].Params()...)
		ps = append(ps, s.proj[i].Params()...)
		ps = append(ps, s.projBN[i].Params()...)
	}
	ps = append(ps, s.head.Params()...)
	ps = append(ps, s.headBN.Params()...)
	ps = append(ps, s.fc.Params()...)
	return ps
}

// ArchParams returns the architecture logits.
func (s *IBNSupernet) ArchParams() []*nn.Param {
	ps := []*nn.Param{{Name: s.stemNode.Name, V: s.stemNode.Alpha}}
	for i := range s.expNode {
		ps = append(ps, &nn.Param{Name: s.expNode[i].Name, V: s.expNode[i].Alpha})
		ps = append(ps, &nn.Param{Name: s.outNode[i].Name, V: s.outNode[i].Alpha})
	}
	ps = append(ps, &nn.Param{Name: s.headNode.Name, V: s.headNode.Alpha})
	return ps
}

// Forward runs the supernet and builds the differentiable resource model.
func (s *IBNSupernet) Forward(x *ag.Var, training bool, rng *rand.Rand, tau float32) (*ag.Var, *Resources) {
	cfg := s.cfg
	res := &Resources{
		ParamCount: ag.Constant(tensor.Scalar(0)),
		OpCount:    ag.Constant(tensor.Scalar(0)),
	}
	h, w := tensor.SameOut(cfg.InputH, 2), tensor.SameOut(cfg.InputW, 2)

	zStem := s.stemNode.Weights(rng, tau)
	y := ag.ReLU6(s.stemBN.Forward(s.stem.Forward(x, training), training))
	y = ag.ChannelScale(y, channelMask(zStem, cfg.StemOptions, cfg.StemMax))
	ePrev := ExpectedChannels(zStem, cfg.StemOptions)
	kArea := float32(9 * cfg.InputC)
	res.ParamCount = ag.Add(res.ParamCount, ag.Scale(ePrev, kArea))
	res.OpCount = ag.Add(res.OpCount, ag.Scale(ePrev, 2*float32(h*w)*kArea))
	res.WorkMemTerms = append(res.WorkMemTerms,
		ag.AddScalar(ag.Scale(ePrev, float32(h*w)), float32(cfg.InputH*cfg.InputW*cfg.InputC)))

	for i, b := range cfg.Blocks {
		zE := s.expNode[i].Weights(rng, tau)
		zO := s.outNode[i].Weights(rng, tau)
		oh, ow := tensor.SameOut(h, b.Stride), tensor.SameOut(w, b.Stride)

		t := ag.ReLU6(s.expBN[i].Forward(s.exp[i].Forward(y, training), training))
		t = ag.ChannelScale(t, channelMask(zE, b.ExpandOptions, b.MaxExpand))
		t = ag.ReLU6(s.dwBN[i].Forward(s.dw[i].Forward(t, training), training))
		t = ag.ChannelScale(t, channelMask(zE, b.ExpandOptions, b.MaxExpand))
		t = s.projBN[i].Forward(s.proj[i].Forward(t, training), training)
		t = ag.ChannelScale(t, channelMask(zO, b.OutOptions, b.MaxOut))

		eExp := ExpectedChannels(zE, b.ExpandOptions)
		eOut := ExpectedChannels(zO, b.OutOptions)

		// Residual only when shapes allow (stride 1, same physical width);
		// effective widths blend through the mask.
		residual := b.Stride == 1 && i > 0 && cfg.Blocks[i-1].MaxOut == b.MaxOut
		if residual {
			y = ag.Add(t, y)
		} else {
			y = t
		}

		// Costs: exp (E[in]*E[e]) + dw (9*E[e]) + proj (E[e]*E[out]).
		expCross := ag.Mul(ePrev, eExp)
		projCross := ag.Mul(eExp, eOut)
		params := ag.Add(ag.Add(expCross, ag.Scale(eExp, 9)), projCross)
		ops := ag.Add(
			ag.Add(ag.Scale(expCross, 2*float32(h*w)), ag.Scale(eExp, 2*9*float32(oh*ow))),
			ag.Scale(projCross, 2*float32(oh*ow)))
		res.ParamCount = ag.Add(res.ParamCount, params)
		res.OpCount = ag.Add(res.OpCount, ops)
		res.WorkMemTerms = append(res.WorkMemTerms,
			ag.Scale(ag.Add(ePrev, eExp), float32(h*w)),                          // exp node
			ag.Add(ag.Scale(eExp, float32(h*w)), ag.Scale(eExp, float32(oh*ow))), // dw node
			ag.Scale(ag.Add(eExp, eOut), float32(oh*ow)))                         // proj node
		ePrev = eOut
		h, w = oh, ow
	}

	zHead := s.headNode.Weights(rng, tau)
	y = ag.ReLU6(s.headBN.Forward(s.head.Forward(y, training), training))
	y = ag.ChannelScale(y, channelMask(zHead, cfg.HeadOptions, cfg.HeadMax))
	eHead := ExpectedChannels(zHead, cfg.HeadOptions)
	cross := ag.Mul(ePrev, eHead)
	res.ParamCount = ag.Add(res.ParamCount, cross)
	res.OpCount = ag.Add(res.OpCount, ag.Scale(cross, 2*float32(h*w)))

	y = ag.GlobalAvgPool(y)
	logits := s.fc.Forward(y, training)
	fcParams := ag.Scale(eHead, float32(cfg.NumClasses))
	res.ParamCount = ag.Add(res.ParamCount, fcParams)
	res.OpCount = ag.Add(res.OpCount, ag.Scale(fcParams, 2))
	return logits, res
}

// Discretize emits the selected VWW architecture.
func (s *IBNSupernet) Discretize(name string) *arch.Spec {
	cfg := s.cfg
	spec := &arch.Spec{
		Name: name, Task: "vww", Source: "repro",
		InputH: cfg.InputH, InputW: cfg.InputW, InputC: cfg.InputC,
		NumClasses: cfg.NumClasses,
	}
	spec.Blocks = append(spec.Blocks, arch.Block{
		Kind: arch.Conv, KH: 3, KW: 3,
		OutC: cfg.StemOptions[s.stemNode.ArgMax()], Stride: 2,
	})
	for i, b := range cfg.Blocks {
		spec.Blocks = append(spec.Blocks, arch.Block{
			Kind: arch.IBN, KH: 3, KW: 3,
			Expand: b.ExpandOptions[s.expNode[i].ArgMax()],
			OutC:   b.OutOptions[s.outNode[i].ArgMax()],
			Stride: b.Stride,
		})
	}
	spec.Blocks = append(spec.Blocks,
		arch.Block{Kind: arch.Conv, KH: 1, KW: 1, OutC: cfg.HeadOptions[s.headNode.ArgMax()], Stride: 1},
		arch.Block{Kind: arch.GlobalPool},
		arch.Block{Kind: arch.Dense, OutC: cfg.NumClasses},
	)
	return spec
}

// VWWSupernetConfig builds a MobileNetV2-backbone search space at the given
// input resolution, scaled by width so laptop-scale searches are feasible
// (the paper's full space uses the complete MobileNetV2 at 50x50 and
// 160x160 grayscale inputs). Widths are searched in `steps` fractions of
// the reference, per §5.2.1 ("between 10% and 100% ... in increments of
// 10%" would be steps=10).
func VWWSupernetConfig(inputSize, baseWidth, steps int) IBNSupernetConfig {
	mk := func(maxC int) []int { return WidthOptions(maxC, steps, false) }
	type st struct{ c, n, s int }
	stages := []st{{baseWidth, 1, 1}, {baseWidth * 2, 2, 2}, {baseWidth * 4, 2, 2}}
	cfg := IBNSupernetConfig{
		Name:   "vww",
		InputH: inputSize, InputW: inputSize, InputC: 1, NumClasses: 2,
		StemMax: baseWidth, StemOptions: mk(baseWidth),
		HeadMax: baseWidth * 8, HeadOptions: mk(baseWidth * 8),
	}
	for _, stg := range stages {
		for i := 0; i < stg.n; i++ {
			s := 1
			if i == 0 {
				s = stg.s
			}
			cfg.Blocks = append(cfg.Blocks, IBNSupernetBlock{
				Stride:        s,
				MaxExpand:     stg.c * 4,
				MaxOut:        stg.c,
				ExpandOptions: mk(stg.c * 4),
				OutOptions:    mk(stg.c),
			})
		}
	}
	return cfg
}
