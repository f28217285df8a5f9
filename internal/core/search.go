package core

import (
	"fmt"
	"math/rand"

	"micronets/internal/arch"
	ag "micronets/internal/autograd"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

// Constraints are the MCU budgets the search must satisfy (§5.1): model
// size against eFlash, working memory against SRAM (minus the expected
// TFLM overhead), and op count as the latency/energy proxy justified by
// the hardware characterization (§3). All memory budgets are denominated
// in BYTES so they compose directly with the tflm planner's byte
// accounting (device SRAM/flash budgets, tflm.MemoryReport, the search
// harness). During the differentiable search the relaxed resource model
// counts int8 weights and activations, where one element is one byte, so
// the same budgets bound both the relaxed and the planner-measured model.
type Constraints struct {
	// MaxWeightBytes bounds the int8 weight bytes (the eFlash budget;
	// one weight is one byte).
	MaxWeightBytes float64
	// MaxArenaBytes bounds the activation working memory in bytes. The
	// differentiable proxy is max-over-nodes (inputs+outputs) int8 bytes;
	// the tflm arena planner refines it downward with buffer reuse, so a
	// relaxed model under this budget stays under it after planning (the
	// tflm property tests pin this).
	MaxArenaBytes float64
	// MaxOps bounds the op count (2*MACs).
	MaxOps float64
}

// penaltyWeight is λ, the one weight of every budget's penalty term.
const penaltyWeight float32 = 2

// Penalty builds the differentiable constraint penalty
// Σ λ·relu(usage/budget − 1) from a forward pass's resource model.
func (c Constraints) Penalty(res *Resources) *ag.Var {
	total := ag.Constant(tensor.Scalar(0))
	add := func(usage *ag.Var, budget float64) {
		if budget <= 0 {
			return
		}
		norm := ag.AddScalar(ag.Scale(usage, float32(1/budget)), -1)
		total = ag.Add(total, ag.Scale(ag.ReLU(norm), penaltyWeight))
	}
	add(res.ParamCount, c.MaxWeightBytes)
	add(res.WorkingMemory(), c.MaxArenaBytes)
	add(res.OpCount, c.MaxOps)
	return total
}

// Batch is one training batch.
type Batch struct {
	X      *tensor.Tensor // [n,h,w,c]
	Labels []int
}

// SearchConfig drives RunSearch.
type SearchConfig struct {
	Steps int
	// ArchStartStep delays architecture updates so weights warm up first
	// (standard DNAS practice).
	ArchStartStep int
	WeightLR      nn.CosineSchedule
	Seed          int64
}

// archLR is the Adam step size of the architecture logits; tauStart and
// tauEnd are the ends of the linear Gumbel-softmax temperature anneal.
const (
	archLR   float32 = 0.05
	tauStart float32 = 5
	tauEnd   float32 = 0.5
)

// SearchResult reports the discovered architecture and the last step's
// loss and penalty.
type SearchResult struct {
	Spec         *arch.Spec
	FinalLoss    float32
	FinalPenalty float32
}

// RunSearch trains the supernet with alternating weight/architecture
// updates (first-order DARTS style): weights minimize task loss on train
// batches, architecture logits minimize task loss + constraint penalty on
// validation batches. Each update sees only its own loss's gradient.
func RunSearch(s *Supernet, train, val func(step int) Batch, cons Constraints, cfg SearchConfig) (*SearchResult, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("core: search needs Steps > 0")
	}
	l := newSearchLoop(s, train, val, cons, cfg)
	for step := 0; step < l.cfg.Steps; step++ {
		l.step(step)
	}
	return &SearchResult{
		Spec:         s.Discretize("DNAS-" + s.cfg.Space.Task),
		FinalLoss:    l.lastLoss,
		FinalPenalty: l.lastPen,
	}, nil
}

// searchLoop is RunSearch's state from one step to the next. Every step
// builds the same two graphs, so they draw their tensors from one tape,
// released after each optimizer step.
type searchLoop struct {
	s          *Supernet
	train, val func(step int) Batch
	cons       Constraints
	cfg        SearchConfig

	rng              *rand.Rand
	wOpt             *nn.SGD
	aOpt             *nn.Adam
	wParams, aParams []*nn.Param
	tape             *ag.Tape

	lastLoss, lastPen float32
}

func newSearchLoop(s *Supernet, train, val func(step int) Batch, cons Constraints, cfg SearchConfig) *searchLoop {
	return &searchLoop{
		s: s, train: train, val: val, cons: cons, cfg: cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		wOpt:    nn.NewSGD(1e-4),
		aOpt:    nn.NewAdam(),
		wParams: s.WeightParams(),
		aParams: s.ArchParams(),
		tape:    ag.NewTape(),
	}
}

// step runs one weight update and, from ArchStartStep on, one
// architecture update.
func (l *searchLoop) step(step int) {
	cfg := l.cfg
	frac := float32(step) / float32(cfg.Steps)
	tau := tauStart + (tauEnd-tauStart)*frac

	// Weight update on the train split. Each backward pass reaches both
	// parameter sets (the Gumbel-softmax masks tie the logits to the
	// train loss, and the val loss reaches the weights), so each phase
	// clears what the other phase's pass left in its own set first.
	b := l.train(step)
	logits, _ := l.s.Forward(l.tape.Constant(b.X), true, l.rng, tau)
	loss := ag.CrossEntropy(logits, b.Labels)
	zeroGrads(l.wParams)
	ag.Backward(loss)
	nn.ClipGradNorm(l.wParams, 5)
	l.wOpt.Step(l.wParams, cfg.WeightLR.LR(step))
	l.lastLoss = loss.Scalar()
	l.tape.Release()

	// Architecture update on the val split.
	if step >= cfg.ArchStartStep {
		vb := l.val(step)
		vlogits, z := l.s.Forward(l.tape.Constant(vb.X), false, l.rng, tau)
		pen := l.cons.Penalty(l.s.Resources(z))
		vloss := ag.Add(ag.CrossEntropy(vlogits, vb.Labels), pen)
		zeroGrads(l.aParams)
		ag.Backward(vloss)
		l.aOpt.Step(l.aParams, archLR)
		l.lastPen = pen.Scalar()
		l.tape.Release()
	}
}

// zeroGrads clears the gradients of ps.
func zeroGrads(ps []*nn.Param) {
	for _, p := range ps {
		p.V.ZeroGrad()
	}
}
