package search

import (
	"fmt"
	"math"
	"math/rand"

	"micronets/internal/arch"
	"micronets/internal/graph"
	"micronets/internal/mcu"
)

// evalSeed fixes the synthetic-weight stream for every trial lowering.
// Weights do not affect any scored metric (latency, energy and memory are
// functions of shapes and datatypes only), so a shared seed keeps trial
// evaluation deterministic and resume-safe.
const evalSeed = 1

// Metrics is one candidate's hardware-in-the-loop measurement, read from
// mcu.Deploy: the real tflm planner's byte accounting (not the
// element-count proxy the relaxed DNAS uses) plus the mcu latency/energy
// models on the target device.
type Metrics struct {
	// AccuracyProxy is the capacity-based stand-in for trained accuracy
	// (see accuracyProxy); higher is better.
	AccuracyProxy float64 `json:"accuracy_proxy"`
	// TrainedAccuracy is the task metric measured by a real short training
	// run during the finalist re-rank (percent: top-1 accuracy for
	// KWS/VWW, AUC for AD). Zero until stage two trains the candidate —
	// the proxy-only JSONL schema from before two-stage search omits the
	// field entirely.
	TrainedAccuracy float64 `json:"trained_accuracy,omitempty"`
	// LatencyS is modeled end-to-end inference latency on the device.
	LatencyS float64 `json:"latency_s"`
	// EnergyMJ is energy per inference in millijoules.
	EnergyMJ float64 `json:"energy_mj"`
	// ArenaBytes is the planner-reported activation arena.
	ArenaBytes int `json:"arena_bytes"`
	// TotalSRAMBytes adds persistent buffers and runtime overheads — the
	// number checked against the device SRAM budget.
	TotalSRAMBytes int `json:"total_sram_bytes"`
	// WeightBytes is the flash cost of weights alone.
	WeightBytes int `json:"weight_bytes"`
	// TotalFlashBytes is the full application flash footprint checked
	// against the device flash budget.
	TotalFlashBytes int `json:"total_flash_bytes"`
	// Ops is the paper-convention op count (2*MACs).
	Ops int64 `json:"ops"`
}

// Budgets are the deployment constraints a feasible candidate must meet,
// denominated in bytes (and seconds) like the post-refactor
// core.Constraints. Zero disables a bound.
type Budgets struct {
	SRAMBytes   int     `json:"sram_bytes"`
	FlashBytes  int     `json:"flash_bytes"`
	MaxLatencyS float64 `json:"max_latency_s,omitempty"`
}

// DeviceBudgets returns the budgets of a device: its full SRAM and flash
// (the runtime overheads are already part of Metrics' totals).
func DeviceBudgets(dev *mcu.Device) Budgets {
	return Budgets{SRAMBytes: dev.SRAMBytes(), FlashBytes: dev.FlashBytes()}
}

// Check reports every budget the metrics exceed (empty = feasible).
func (b Budgets) Check(m Metrics) []string {
	var v []string
	if b.SRAMBytes > 0 && m.TotalSRAMBytes > b.SRAMBytes {
		v = append(v, fmt.Sprintf("SRAM %d > %d", m.TotalSRAMBytes, b.SRAMBytes))
	}
	if b.FlashBytes > 0 && m.TotalFlashBytes > b.FlashBytes {
		v = append(v, fmt.Sprintf("flash %d > %d", m.TotalFlashBytes, b.FlashBytes))
	}
	if b.MaxLatencyS > 0 && m.LatencyS > b.MaxLatencyS {
		v = append(v, fmt.Sprintf("latency %.3fs > %.3fs", m.LatencyS, b.MaxLatencyS))
	}
	return v
}

// Evaluate lowers a candidate and measures it with mcu.Deploy — spec →
// graph → tflm memory plan → mcu cost models — and returns its metrics.
// This is the "hardware in the loop" step: the SRAM number is the actual
// greedy-planner arena (plus persistent buffers and runtime overheads),
// not the max-working-set element proxy. Feasibility is Budgets.Check's,
// not the deployment's fit against the whole device.
func Evaluate(spec *arch.Spec, dev *mcu.Device) (Metrics, error) {
	// The proxy runs first: a spec that fails Analyze must fail the trial
	// (and be recorded as failed in the JSONL log), never score 0 and get
	// logged as a legitimate — terrible — candidate.
	proxy, err := accuracyProxy(spec)
	if err != nil {
		return Metrics{}, err
	}
	m, err := graph.FromSpec(spec, rand.New(rand.NewSource(evalSeed)), graph.LowerOptions{})
	if err != nil {
		return Metrics{}, err
	}
	// A latency-model failure fails the trial: scoring the candidate 0 s
	// would Pareto-dominate every real candidate.
	d, err := mcu.Deploy(m, dev)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		AccuracyProxy:   proxy,
		LatencyS:        d.LatencySeconds,
		EnergyMJ:        d.EnergyMJ,
		ArenaBytes:      d.Report.ArenaBytes,
		TotalSRAMBytes:  d.Report.TotalSRAM(),
		WeightBytes:     m.WeightBytes(),
		TotalFlashBytes: d.Report.TotalFlash(),
		Ops:             m.TotalOps(),
	}, nil
}

// Task accuracy ceilings for the proxy, anchored to the best published
// numbers per task (Table 4): no capacity buys more than the ceiling.
var taskCeiling = map[string]float64{"kws": 97.0, "ad": 98.0, "vww": 90.0}

// accuracyProxy estimates reachable accuracy from model capacity: a
// saturating function of log-ops and log-params, matching the paper's
// observation that accuracy grows roughly logarithmically with ops before
// flattening (Figures 7/8). It is deterministic, cheap, and monotone in
// capacity — so the Pareto frontier it induces rewards architectures that
// buy capacity with the least latency/SRAM/flash, which is the shape of
// the real trade-off even though absolute values await
// accuracy-in-the-loop training (the finalist re-rank, see Trainer). A
// broken spec is an error, not a 0 score: Evaluate surfaces it so the
// trial is recorded as failed in the JSONL log instead of silently
// scored.
func accuracyProxy(spec *arch.Spec) (float64, error) {
	a, err := spec.Analyze()
	if err != nil {
		return 0, fmt.Errorf("accuracy proxy: %w", err)
	}
	ceiling, ok := taskCeiling[spec.Task]
	if !ok {
		ceiling = 95
	}
	capacity := 0.7*math.Log1p(float64(a.TotalMACs)) + 0.3*math.Log1p(float64(a.TotalParams))
	return ceiling * (1 - math.Exp(-capacity/3.9)), nil
}
