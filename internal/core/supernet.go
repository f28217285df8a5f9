package core

import (
	"fmt"
	"math/rand"
	"slices"

	"micronets/internal/arch"
	ag "micronets/internal/autograd"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

// SupernetConfig describes a DS-CNN supernet: the relaxation of a Space,
// built by Space.Supernet.
type SupernetConfig struct {
	// Space is the discrete space the supernet relaxes; it fixes the
	// input geometry, first conv kernel, block strides, pool and
	// classifier, and its Build decides what every width choice deploys
	// as, which is what the resource model charges.
	Space *Space

	// WidthOptions are the candidate widths of the first conv and of
	// every block, ascending. The largest is the physical channel width
	// of the shared weights; masking realizes narrower choices.
	WidthOptions []int

	// Blocks is the number of DS blocks. A block the space gives stride
	// 1 gets a parallel identity shortcut so DNAS can drop it entirely
	// (depth search, §5.2.2); stride-2 blocks stay, which preserves the
	// spatial schedule.
	Blocks int
}

// Supernet is the trainable search network: shared weights at maximal
// width plus one DecisionNode per width/depth choice.
type Supernet struct {
	cfg SupernetConfig

	// net is arch.Build of the space's spec at the largest width option
	// everywhere: entry 0 is the first conv, entries 1..n the DS block
	// bodies the width decisions mask, and the rest the pool and
	// classifier tail.
	net *nn.Sequential

	firstNode *DecisionNode
	width     []*DecisionNode
	depth     []*DecisionNode // nil when not skippable

	// costs holds one table per decision stage: the first conv, each
	// block, then the pool+classifier tail.
	costs []stageCosts
}

// stageCosts are one decision stage's arch.Analyze costs for every pair
// of (input width option a, output width option b), in one constant
// [in, kinds·out] table whose entry [a, k·out+b] is cost k: weights, ops,
// then InBytes+OutBytes of each of the stage's Analyze rows. The first
// conv has one input option (the space's InputC) and the pool+classifier
// tail one output option (the classes).
type stageCosts struct {
	table *ag.Var
	kinds int
}

// NewSupernet builds the supernet with He-initialized shared weights and
// tabulates its resource model.
func NewSupernet(rng *rand.Rand, cfg SupernetConfig) (*Supernet, error) {
	if cfg.Space == nil || len(cfg.WidthOptions) == 0 {
		return nil, fmt.Errorf("core: a supernet needs a Space and width options")
	}
	sp, n := cfg.Space, cfg.Blocks
	maxC := cfg.WidthOptions[len(cfg.WidthOptions)-1]
	net, err := arch.Build(rng, sp.Build("supernet", slices.Repeat([]int{maxC}, n+1)), false)
	if err != nil {
		return nil, err
	}
	s := &Supernet{
		cfg:       cfg,
		net:       net,
		firstNode: NewDecisionNode("b0.width", len(cfg.WidthOptions)),
	}
	for i := range n {
		name := fmt.Sprintf("b%d", i+1)
		s.width = append(s.width, NewDecisionNode(name+".width", len(cfg.WidthOptions)))
		if sp.stride(i, n) == 1 {
			s.depth = append(s.depth, NewDecisionNode(name+".depth", 2))
		} else {
			s.depth = append(s.depth, nil)
		}
	}
	for j := 0; j <= n+1; j++ {
		c, err := tabulate(sp, cfg.WidthOptions, n, j)
		if err != nil {
			return nil, err
		}
		s.costs = append(s.costs, c)
	}
	return s, nil
}

// tabulate builds stage j's costs (0 the first conv, 1..n the blocks,
// n+1 the tail) from Analyze of the space's n-block specs, one spec per
// (input option, output option) pair around stage j. A stage's rows
// depend only on its own input and output widths, so every other width
// is opts[0].
func tabulate(sp *Space, opts []int, n, j int) (stageCosts, error) {
	in, out := len(opts), len(opts)
	if j == 0 {
		in = 1
	}
	if j == n+1 {
		out = 1
	}
	var c stageCosts
	var t *tensor.Tensor
	widths := slices.Repeat(opts[:1], n+1)
	for a := range in {
		for b := range out {
			if j > 0 {
				widths[j-1] = opts[a]
			}
			if j <= n {
				widths[j] = opts[b]
			}
			an, err := sp.Build("stage", widths).Analyze()
			if err != nil {
				return c, err
			}
			var params, macs int64
			var workSet []float32
			for _, l := range an.Layers {
				// The tail is every block after the last DS block.
				if min(l.BlockIdx, n+1) == j {
					params += l.Params
					macs += l.MACs
					workSet = append(workSet, float32(l.InBytes()+l.OutBytes()))
				}
			}
			cell := append([]float32{float32(params), float32(2 * macs)}, workSet...)
			if t == nil {
				c.kinds, t = len(cell), tensor.New(in, len(cell)*out)
			}
			for k, v := range cell {
				t.Data[(a*c.kinds+k)*out+b] = v
			}
		}
	}
	c.table = ag.Constant(t)
	return c, nil
}

// WeightParams returns the shared network weights (trained on the train
// split).
func (s *Supernet) WeightParams() []*nn.Param { return s.net.Params() }

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
// pass: expected parameter count, op count, and the per-layer working
// memory terms whose max is the SRAM model (§5.1.1, §5.1.2). Every term
// is arch.Analyze's, in expectation: each stage charges pᵀ·T·z of its
// table T, where p is the distribution of its input width and z its
// width weights, so at one-hot decisions the model equals Analyze of
// Discretize exactly.
type Resources struct {
	// ParamCount is the expected number of weights (eq. 2 summed).
	ParamCount *ag.Var
	// OpCount is the expected MAC*2 count (the latency proxy).
	OpCount *ag.Var
	// WorkMemTerms are per-layer (inputs+outputs) int8 bytes; SRAM
	// working memory is their maximum (the SpArSe model).
	WorkMemTerms []*ag.Var
}

// WorkingMemory returns the differentiable max over node working-memory
// terms.
func (r *Resources) WorkingMemory() *ag.Var {
	return ag.MaxN(r.WorkMemTerms...)
}

// charge adds a stage's expected costs, pᵀ·T·z for input width
// distribution p and output weights z, scaled by the stage's keep
// probability unless keep is nil.
func (r *Resources) charge(c stageCosts, p, z, keep *ag.Var) {
	pt := ag.MatMul(ag.Reshape(p, 1, -1), c.table)
	e := ag.MatMul(ag.Reshape(pt, c.kinds, -1), ag.Reshape(z, -1, 1))
	if keep != nil {
		e = ag.ScalarMul(keep, e)
	}
	r.ParamCount = ag.Add(r.ParamCount, ag.Index(e, 0))
	r.OpCount = ag.Add(r.OpCount, ag.Index(e, 1))
	for k := 2; k < c.kinds; k++ {
		r.WorkMemTerms = append(r.WorkMemTerms, ag.Index(e, k))
	}
}

// Decisions are the relaxed selections z one Forward sampled: the first
// conv's width, then each block's width and, where it is skippable, its
// keep and skip weights (nil where it is not).
type Decisions struct {
	first             *ag.Var
	width, keep, skip []*ag.Var
}

// Forward runs the supernet, returning classifier logits and the
// decisions it sampled, which Resources charges. rng enables Gumbel
// sampling (nil for deterministic softmax weights); tau is the relaxation
// temperature.
func (s *Supernet) Forward(x *ag.Var, training bool, rng *rand.Rand, tau float32) (*ag.Var, *Decisions) {
	opts, n := s.cfg.WidthOptions, len(s.width)
	z := &Decisions{first: s.firstNode.Weights(rng, tau)}
	y := s.net.Layers[0].Forward(x, training)
	y = ag.ChannelScale(y, channelMask(z.first, opts))
	for i, block := range s.net.Layers[1 : n+1] {
		zW := s.width[i].Weights(rng, tau)
		body := block.Forward(y, training)
		body = ag.ChannelScale(body, channelMask(zW, opts))
		var zKeep, zSkip *ag.Var
		if s.depth[i] == nil {
			y = body
		} else {
			zD := s.depth[i].Weights(rng, tau)
			zKeep, zSkip = ag.Index(zD, 0), ag.Index(zD, 1)
			// Shortcut: identity (stride is 1 for skippable blocks).
			y = ag.Add(ag.ScalarMul(zKeep, body), ag.ScalarMul(zSkip, y))
		}
		z.width = append(z.width, zW)
		z.keep = append(z.keep, zKeep)
		z.skip = append(z.skip, zSkip)
	}
	for _, l := range s.net.Layers[n+1:] {
		y = l.Forward(y, training)
	}
	return y, z
}

// Resources charges the decisions z of one Forward: the resource model
// tied to that architecture sample.
func (s *Supernet) Resources(z *Decisions) *Resources {
	res := &Resources{
		ParamCount: ag.Constant(tensor.Scalar(0)),
		OpCount:    ag.Constant(tensor.Scalar(0)),
	}
	// one is the one-option width of the input and of the logits.
	one := ag.Constant(tensor.FromSlice([]float32{1}, 1))
	res.charge(s.costs[0], one, z.first, nil)
	// p is the distribution over the next stage's input width.
	p := z.first
	for i, zW := range z.width {
		res.charge(s.costs[i+1], p, zW, z.keep[i])
		if z.keep[i] == nil {
			p = zW
		} else {
			// The output width blends kept and skipped widths.
			p = ag.Add(ag.ScalarMul(z.keep[i], zW), ag.ScalarMul(z.skip[i], p))
		}
	}
	res.charge(s.costs[len(z.width)+1], p, one, nil)
	return res
}

// Discretize reads the decision nodes and emits the selected architecture
// as an arch.Spec of the supernet's space, ready for final training and
// deployment.
func (s *Supernet) Discretize(name string) *arch.Spec {
	opts := s.cfg.WidthOptions
	widths := []int{opts[s.firstNode.ArgMax()]}
	for i := range s.width {
		if s.depth[i] != nil && s.depth[i].ArgMax() == 1 {
			continue // block skipped
		}
		widths = append(widths, opts[s.width[i].ArgMax()])
	}
	spec := s.cfg.Space.Build(name, widths)
	spec.Source = "repro"
	return spec
}
