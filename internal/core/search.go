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

	// Penalty weights.
	LambdaParams, LambdaMem, LambdaOps float32
}

// withDefaults fills zero penalty weights with sensible defaults.
func (c Constraints) withDefaults() Constraints {
	if c.LambdaParams == 0 {
		c.LambdaParams = 2
	}
	if c.LambdaMem == 0 {
		c.LambdaMem = 2
	}
	if c.LambdaOps == 0 {
		c.LambdaOps = 2
	}
	return c
}

// Penalty builds the differentiable constraint penalty
// Σ λ·relu(usage/budget − 1) from a forward pass's resource model.
func (c Constraints) Penalty(res *Resources) *ag.Var {
	cc := c.withDefaults()
	total := ag.Constant(tensor.Scalar(0))
	add := func(usage *ag.Var, budget float64, lambda float32) {
		if budget <= 0 {
			return
		}
		norm := ag.AddScalar(ag.Scale(usage, float32(1/budget)), -1)
		total = ag.Add(total, ag.Scale(ag.ReLU(norm), lambda))
	}
	add(res.ParamCount, c.MaxWeightBytes, cc.LambdaParams)
	add(res.WorkingMemory(), c.MaxArenaBytes, cc.LambdaMem)
	add(res.OpCount, c.MaxOps, cc.LambdaOps)
	return total
}

// Violations reports which budgets the current (discrete) resource values
// exceed; used for logging and tests.
func (c Constraints) Violations(res *Resources) []string {
	var v []string
	if c.MaxWeightBytes > 0 && float64(res.ParamCount.Scalar()) > c.MaxWeightBytes {
		v = append(v, fmt.Sprintf("weight bytes %.0f > %.0f", res.ParamCount.Scalar(), c.MaxWeightBytes))
	}
	if c.MaxArenaBytes > 0 && float64(res.WorkingMemory().Scalar()) > c.MaxArenaBytes {
		v = append(v, fmt.Sprintf("arena bytes %.0f > %.0f", res.WorkingMemory().Scalar(), c.MaxArenaBytes))
	}
	if c.MaxOps > 0 && float64(res.OpCount.Scalar()) > c.MaxOps {
		v = append(v, fmt.Sprintf("ops %.0f > %.0f", res.OpCount.Scalar(), c.MaxOps))
	}
	return v
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
	ArchLR        float32
	// TauStart/TauEnd anneal the Gumbel-softmax temperature.
	TauStart, TauEnd float32
	Seed             int64
	// Log receives progress lines (optional).
	Log func(string)
}

// SearchResult reports the discovered architecture and its (expected)
// resource usage at the end of the search.
type SearchResult struct {
	Spec         *arch.Spec
	FinalLoss    float32
	FinalPenalty float32
	ParamCount   float64
	OpCount      float64
	WorkMemElems float64
	Violations   []string
}

// RunSearch trains the supernet with alternating weight/architecture
// updates (first-order DARTS style): weights minimize task loss on train
// batches, architecture logits minimize task loss + constraint penalty on
// validation batches.
func RunSearch(s *Supernet, train, val func(step int) Batch, cons Constraints, cfg SearchConfig) (*SearchResult, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("core: search needs Steps > 0")
	}
	if cfg.TauStart == 0 {
		cfg.TauStart = 5
	}
	if cfg.TauEnd == 0 {
		cfg.TauEnd = 0.5
	}
	if cfg.ArchLR == 0 {
		cfg.ArchLR = 0.05
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	wOpt := nn.NewSGD(0.9, 1e-4)
	aOpt := nn.NewAdam(0)
	wParams := s.WeightParams()
	aParams := s.ArchParams()

	var lastLoss, lastPen float32
	for step := 0; step < cfg.Steps; step++ {
		frac := float32(step) / float32(cfg.Steps)
		tau := cfg.TauStart + (cfg.TauEnd-cfg.TauStart)*frac

		// Weight update on the train split.
		b := train(step)
		logits, _ := s.Forward(ag.Constant(b.X), true, rng, tau)
		loss := ag.CrossEntropy(logits, b.Labels)
		ag.Backward(loss)
		nn.ClipGradNorm(wParams, 5)
		wOpt.Step(wParams, cfg.WeightLR.LR(step))
		lastLoss = loss.Scalar()

		// Architecture update on the val split.
		if step >= cfg.ArchStartStep {
			vb := val(step)
			vlogits, res := s.Forward(ag.Constant(vb.X), false, rng, tau)
			pen := cons.Penalty(res)
			vloss := ag.Add(ag.CrossEntropy(vlogits, vb.Labels), pen)
			ag.Backward(vloss)
			aOpt.Step(aParams, cfg.ArchLR)
			lastPen = pen.Scalar()
		}

		if cfg.Log != nil && (step%10 == 0 || step == cfg.Steps-1) {
			cfg.Log(fmt.Sprintf("step %d/%d tau=%.2f loss=%.4f penalty=%.4f",
				step+1, cfg.Steps, tau, lastLoss, lastPen))
		}
	}

	// Evaluate final resources deterministically (softmax weights, no
	// Gumbel noise, low temperature to approximate the discrete choice).
	b := val(cfg.Steps)
	_, res := s.Forward(ag.Constant(b.X), false, nil, 0.05)
	result := &SearchResult{
		Spec:         s.Discretize(fmt.Sprintf("DNAS-%s", s.cfg.Name)),
		FinalLoss:    lastLoss,
		FinalPenalty: lastPen,
		ParamCount:   float64(res.ParamCount.Scalar()),
		OpCount:      float64(res.OpCount.Scalar()),
		WorkMemElems: float64(res.WorkingMemory().Scalar()),
		Violations:   cons.Violations(res),
	}
	return result, nil
}

// KWSSupernetConfig returns the paper's KWS search space: an enlarged
// DS-CNN(L) backbone (§5.2.2) — first conv plus nine depthwise-separable
// blocks of up to 276 channels with parallel skips — here scaled by
// maxC/blocks so tests and laptop-scale searches stay tractable.
func KWSSupernetConfig(inputH, inputW, classes, maxC, blocks int) SupernetConfig {
	opts := WidthOptions(maxC, 8, true)
	cfg := SupernetConfig{
		Name: "kws", Task: "kws",
		InputH: inputH, InputW: inputW, InputC: 1, NumClasses: classes,
		FirstKH: 10, FirstKW: 4, FirstStride: 1,
		FirstWidthOptions: opts,
		MaxC:              maxC,
		PoolKH:            tensor.SameOut(inputH, 2), PoolKW: tensor.SameOut(inputW, 2),
	}
	for i := 0; i < blocks; i++ {
		b := SupernetBlock{Stride: 1, WidthOptions: opts, Skippable: i > 0}
		if i == 0 {
			b.Stride = 2
		}
		cfg.Blocks = append(cfg.Blocks, b)
	}
	return cfg
}

// ADSupernetConfig returns the anomaly-detection search space (§5.2.3):
// DS-CNN backbone on 32x32 spectrogram patches with the last two blocks at
// stride 2.
func ADSupernetConfig(maxC, blocks int) SupernetConfig {
	opts := WidthOptions(maxC, 8, true)
	cfg := SupernetConfig{
		Name: "ad", Task: "ad",
		InputH: 32, InputW: 32, InputC: 1, NumClasses: 4,
		FirstKH: 3, FirstKW: 3, FirstStride: 1,
		FirstWidthOptions: opts,
		MaxC:              maxC,
	}
	for i := 0; i < blocks; i++ {
		b := SupernetBlock{Stride: 1, WidthOptions: opts, Skippable: true}
		if i == 0 || i >= blocks-2 {
			b.Stride = 2
			b.Skippable = false
		}
		cfg.Blocks = append(cfg.Blocks, b)
	}
	// 32 -> 16 -> ... -> pool whatever remains globally.
	cfg.PoolKH, cfg.PoolKW = 0, 0
	return cfg
}
