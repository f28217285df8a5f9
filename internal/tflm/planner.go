package tflm

import (
	"fmt"
	"sort"

	"micronets/internal/graph"
	"micronets/internal/kernels"
)

// Alignment of arena allocations, matching TFLM's kBufferAlignment.
const arenaAlign = 16

// Allocation is one tensor's placement in the arena.
type Allocation struct {
	TensorID int
	Offset   int
	Size     int
	FirstUse int // op index producing it (-1 for the model input)
	LastUse  int // last op index consuming it
}

// Plan is the memory plan for a model. ArenaBytes covers the activation
// tensors (the deployable SRAM number reported in the paper's tables);
// ScratchBytes is the host-side im2col region the Default kernel engine
// needs, placed immediately after the arena so all inference memory is
// planner-accounted rather than hidden in ad-hoc kernel allocations. It
// is excluded from device-fit checks because MCU deployments run the
// direct (CMSIS-NN-style) convolution instead.
type Plan struct {
	Allocations  []Allocation
	ArenaBytes   int
	ScratchBytes int
}

// TotalBytes is the full host allocation: activation arena plus im2col
// scratch.
func (p *Plan) TotalBytes() int { return p.ArenaBytes + p.ScratchBytes }

// lifetimes computes [firstUse, lastUse] op-index ranges per tensor.
// The model input is alive from -1; the model output stays alive to the
// final op.
func lifetimes(m *graph.Model) map[int]*Allocation {
	live := map[int]*Allocation{}
	get := func(id int) *Allocation {
		a, ok := live[id]
		if !ok {
			a = &Allocation{TensorID: id, FirstUse: -2, LastUse: -2}
			live[id] = a
		}
		return a
	}
	in := get(m.Input)
	in.FirstUse = -1
	in.LastUse = -1
	for i, op := range m.Ops {
		for _, tid := range op.Inputs {
			a := get(tid)
			if a.LastUse < i {
				a.LastUse = i
			}
		}
		o := get(op.Output)
		if o.FirstUse == -2 {
			o.FirstUse = i
		}
		if o.LastUse < i {
			o.LastUse = i
		}
	}
	out := get(m.Output)
	out.LastUse = len(m.Ops) - 1
	return live
}

func alignUp(n int) int {
	return (n + arenaAlign - 1) / arenaAlign * arenaAlign
}

// PlanMemory lays out all activation tensors in a single arena using the
// greedy-by-size strategy of TFLM's GreedyMemoryPlanner: tensors are
// processed largest-first and placed at the lowest offset that does not
// overlap any already-placed tensor with an intersecting lifetime. The
// plan is for one input row — the only way the runtime executes, and what
// serving capacity planning charges per pooled interpreter; the property
// tests pin it between the largest single-op working set and the no-reuse
// sum.
func PlanMemory(m *graph.Model) (*Plan, error) {
	live := lifetimes(m)
	var allocs []*Allocation
	for id, a := range live {
		if a.FirstUse == -2 {
			return nil, fmt.Errorf("tflm: tensor %d is never used", id)
		}
		a.Size = alignUp(m.Tensors[id].Bytes())
		allocs = append(allocs, a)
	}
	sort.Slice(allocs, func(i, j int) bool {
		if allocs[i].Size != allocs[j].Size {
			return allocs[i].Size > allocs[j].Size
		}
		return allocs[i].TensorID < allocs[j].TensorID
	})
	var placed []*Allocation
	arena := 0
	overlapsInTime := func(a, b *Allocation) bool {
		return a.FirstUse <= b.LastUse && b.FirstUse <= a.LastUse
	}
	for _, a := range allocs {
		// Gather occupied intervals from time-overlapping placed tensors.
		type iv struct{ lo, hi int }
		var busy []iv
		for _, p := range placed {
			if overlapsInTime(a, p) {
				busy = append(busy, iv{p.Offset, p.Offset + p.Size})
			}
		}
		sort.Slice(busy, func(i, j int) bool { return busy[i].lo < busy[j].lo })
		off := 0
		for _, b := range busy {
			if off+a.Size <= b.lo {
				break
			}
			if b.hi > off {
				off = b.hi
			}
		}
		a.Offset = off
		if off+a.Size > arena {
			arena = off + a.Size
		}
		placed = append(placed, a)
	}
	plan := &Plan{ArenaBytes: arena, ScratchBytes: alignUp(kernels.ScratchBytes(m))}
	sort.Slice(placed, func(i, j int) bool { return placed[i].TensorID < placed[j].TensorID })
	for _, a := range placed {
		plan.Allocations = append(plan.Allocations, *a)
	}
	return plan, nil
}

// Verify checks the non-overlap invariant: any two allocations with
// intersecting lifetimes must occupy disjoint byte ranges. Used by tests
// and as a debug assertion.
func (p *Plan) Verify() error {
	for i := range p.Allocations {
		for j := i + 1; j < len(p.Allocations); j++ {
			a, b := &p.Allocations[i], &p.Allocations[j]
			timeOverlap := a.FirstUse <= b.LastUse && b.FirstUse <= a.LastUse
			spaceOverlap := a.Offset < b.Offset+b.Size && b.Offset < a.Offset+a.Size
			if timeOverlap && spaceOverlap {
				return fmt.Errorf("tflm: tensors %d and %d overlap in time and space",
					a.TensorID, b.TensorID)
			}
		}
	}
	return nil
}
