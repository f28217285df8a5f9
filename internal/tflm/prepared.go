package tflm

import (
	"fmt"

	"micronets/internal/graph"
	"micronets/internal/kernels"
)

// Prepared is everything interpreter construction derives from the model
// alone: validation, the memory plan, and the engine's prepared kernel
// state (packed weight panels, folded biases, depthwise prefix sums).
// It is immutable after Prepare returns and safe to share across any
// number of interpreters — a serving pool builds one Prepared per model
// version and stamps out per-replica interpreters from it, so N replicas
// pay for the packed weights once instead of N times. This is the
// TinyEngine-style prepare/execute split: model-derived state is
// read-only and shared, per-invocation state (the arena, scratch) stays
// private to each replica.
type Prepared struct {
	model  *graph.Model
	engine kernels.Engine
	plan   *Plan
	prep   *kernels.PreparedModel
}

// Prepare validates, plans, and prepares a model for the default engine.
func Prepare(m *graph.Model) (*Prepared, error) {
	return PrepareWithEngine(m, kernels.Default)
}

// PrepareWithEngine is Prepare with an explicit kernel engine. It fails —
// like TFLM's AllocateTensors — if the model contains unsupported ops.
func PrepareWithEngine(m *graph.Model, eng kernels.Engine) (*Prepared, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for i, op := range m.Ops {
		if op.Kind == graph.OpTransposedConv {
			return nil, fmt.Errorf("tflm: model %s: op %d (%s %q): operator not supported by the runtime", m.Name, i, op.Kind, op.Name)
		}
	}
	for _, t := range m.Tensors {
		// 4-bit activations pack two per byte in the memory plan (that is
		// the point of the §5.1.3 emulation — smaller arenas), but the
		// host kernels execute one int8 element per byte, so such models
		// are planner/latency artifacts, not executable here. Refuse
		// cleanly rather than slicing past the packed arena.
		if t.Bits == 4 {
			return nil, fmt.Errorf("tflm: model %s: 4-bit activations are a memory/latency emulation; the host runtime executes int8 only", m.Name)
		}
	}
	plan, err := PlanMemory(m)
	if err != nil {
		return nil, err
	}
	if err := plan.Verify(); err != nil {
		return nil, err
	}
	return &Prepared{model: m, engine: eng, plan: plan, prep: kernels.PrepareModel(m)}, nil
}

// Model returns the model this state was prepared for.
func (p *Prepared) Model() *graph.Model { return p.model }

// Plan returns the shared memory plan.
func (p *Prepared) Plan() *Plan { return p.plan }

// WeightBytes is the RAM footprint of the shared prepared kernel state
// (packed panels, folded biases, prefix sums, multipliers). Paid once per
// model version regardless of pool size; the repository adds it to
// planned RAM exactly once.
func (p *Prepared) WeightBytes() int { return p.prep.Bytes() }

// NewInterpreter builds one replica over the shared prepared state: a
// private arena plus per-op executors bound once against it. arenaLimit
// (bytes) bounds the activation arena; pass 0 for unlimited.
func (p *Prepared) NewInterpreter(arenaLimit int) (*Interpreter, error) {
	m := p.model
	if arenaLimit > 0 && p.plan.ArenaBytes > arenaLimit {
		return nil, fmt.Errorf("tflm: model %s needs %d arena bytes, limit %d",
			m.Name, p.plan.ArenaBytes, arenaLimit)
	}
	// Reference uses no scratch and gets a bare activation arena; Default
	// interpreters carry the planner-accounted im2col tail.
	scratchBytes := alignUp(p.engine.ScratchBytes(m))
	ip := &Interpreter{
		prep:  p,
		model: m,
		arena: make([]int8, p.plan.ArenaBytes+scratchBytes),
		bufs:  make([][]int8, len(m.Tensors)),
		steps: make([]func(), len(m.Ops)),
	}
	for _, a := range p.plan.Allocations {
		t := m.Tensors[a.TensorID]
		ip.bufs[a.TensorID] = ip.arena[a.Offset : a.Offset+t.Elems()]
	}
	ip.scratch = kernels.NewScratch(m, ip.arena[p.plan.ArenaBytes:])
	for i, op := range m.Ops {
		step, err := kernels.BindOp(p.engine, m, op, p.prep.Ctx(i), ip.bufs, ip.scratch)
		if err != nil {
			return nil, fmt.Errorf("tflm: model %s: op %d (%s %q): %w", m.Name, i, op.Kind, op.Name, err)
		}
		ip.steps[i] = step
	}
	return ip, nil
}
