package tflm

import (
	"fmt"
	"math/rand"
	"testing"

	"micronets/internal/arch"
	"micronets/internal/core"
	"micronets/internal/graph"
	"micronets/internal/zoo"
)

// lowerZoo lowers a servable zoo model with synthetic weights (no softmax,
// so op/MAC accounting lines up 1:1 with arch.Analyze).
func lowerZoo(t *testing.T, name string) (*arch.Spec, *graph.Model) {
	t.Helper()
	e, err := zoo.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(1)), graph.LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return e.Spec, m
}

// maxOpWorkingSetBytes is the planner-independent lower bound on any valid
// arena: at the moment an op runs, its (distinct) input tensors and its
// output are all live, so their aligned buffers must coexist.
func maxOpWorkingSetBytes(m *graph.Model) int {
	max := 0
	for _, op := range m.Ops {
		seen := map[int]bool{op.Output: true}
		ws := alignUp(m.Tensors[op.Output].Bytes())
		for _, in := range op.Inputs {
			if !seen[in] {
				seen[in] = true
				ws += alignUp(m.Tensors[in].Bytes())
			}
		}
		if ws > max {
			max = ws
		}
	}
	return max
}

// TestPlanBatchMonotonicAndBounded pins the planner bounds the search
// harness and serving capacity planning rely on, across every servable
// zoo architecture: the one-row arena the runtime allocates is never
// below the largest single-op working set, never above the no-reuse sum,
// and every plan keeps the non-overlap invariant. (The name predates the
// removal of batched planning; the bounds are what it still pins.)
func TestPlanBatchMonotonicAndBounded(t *testing.T) {
	for _, name := range zoo.ServableNames() {
		t.Run(name, func(t *testing.T) {
			_, m := lowerZoo(t, name)
			plan, err := PlanMemory(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Verify(); err != nil {
				t.Fatal(err)
			}
			if lb := maxOpWorkingSetBytes(m); plan.ArenaBytes < lb {
				t.Fatalf("arena %d below max single-op working set %d", plan.ArenaBytes, lb)
			}
			if ub := naiveArenaBytes(m); plan.ArenaBytes > ub {
				t.Fatalf("arena %d above no-reuse bound %d", plan.ArenaBytes, ub)
			}
		})
	}
}

// TestPlanBatchRandomChains repeats the lower-bound property over
// randomly sampled DS-CNN-style chains, so it holds for the shapes a NAS
// run visits and not only the curated zoo.
func TestPlanBatchRandomChains(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		spec := &arch.Spec{
			Name: "rand-chain", Task: "kws", Source: "repro",
			InputH: 8 + rng.Intn(24), InputW: 4 + rng.Intn(12), InputC: 1,
			NumClasses: 4,
		}
		spec.Blocks = append(spec.Blocks, arch.Block{
			Kind: arch.Conv, KH: 3, KW: 3, OutC: 4 * (1 + rng.Intn(8)), Stride: 1,
		})
		for n := rng.Intn(4); n > 0; n-- {
			stride := 1
			if rng.Intn(3) == 0 {
				stride = 2
			}
			spec.Blocks = append(spec.Blocks, arch.Block{
				Kind: arch.DSBlock, KH: 3, KW: 3, OutC: 4 * (1 + rng.Intn(8)), Stride: stride,
			})
		}
		spec.Blocks = append(spec.Blocks,
			arch.Block{Kind: arch.GlobalPool},
			arch.Block{Kind: arch.Dense, OutC: 4})
		m, err := graph.FromSpec(spec, rng, graph.LowerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanMemory(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if lb := maxOpWorkingSetBytes(m); plan.ArenaBytes < lb {
			t.Fatalf("trial %d: arena %d below working-set bound %d", trial, plan.ArenaBytes, lb)
		}
	}
}

// TestConstraintsAgreeWithPlanner pins the post-refactor contract between
// core.Constraints (byte-denominated DNAS budgets) and the tflm planner's
// byte accounting, on every servable zoo model:
//
//   - the analytic weight/op accounting (arch.Analyze) matches the lowered
//     model exactly, so a weight-bytes or ops budget means the same thing
//     to the DNAS penalty and to the deployed model;
//   - budgets set to the planner-reported usage pass checkBytes, and
//     budgets set just below it are reported as violations;
//   - for chain architectures (no residual adds) the analytic working-set
//     proxy upper-bounds the planned arena, so a spec the relaxed search
//     deems SRAM-feasible stays feasible once actually planned.
func TestConstraintsAgreeWithPlanner(t *testing.T) {
	for _, name := range zoo.ServableNames() {
		t.Run(name, func(t *testing.T) {
			spec, m := lowerZoo(t, name)
			a, err := spec.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := PlanMemory(m)
			if err != nil {
				t.Fatal(err)
			}

			if int(a.TotalParams) != m.WeightBytes() {
				t.Fatalf("analytic weight bytes %d != lowered model %d", a.TotalParams, m.WeightBytes())
			}
			if a.TotalOps() != m.TotalOps() {
				t.Fatalf("analytic ops %d != lowered model %d", a.TotalOps(), m.TotalOps())
			}

			weightBytes := float64(m.WeightBytes())
			arenaBytes := float64(plan.ArenaBytes)
			ops := float64(m.TotalOps())
			exact := core.Constraints{MaxWeightBytes: weightBytes, MaxArenaBytes: arenaBytes, MaxOps: ops}
			if v := checkBytes(exact, weightBytes, arenaBytes, ops); len(v) != 0 {
				t.Fatalf("budgets equal to usage must pass, got %v", v)
			}
			tight := core.Constraints{MaxWeightBytes: weightBytes - 1, MaxArenaBytes: arenaBytes - 1, MaxOps: ops - 1}
			if v := checkBytes(tight, weightBytes, arenaBytes, ops); len(v) != 3 {
				t.Fatalf("budgets below usage must report 3 violations, got %v", v)
			}

			hasAdd := false
			for _, op := range m.Ops {
				if op.Kind == graph.OpAdd {
					hasAdd = true
					break
				}
			}
			if !hasAdd {
				// Aligned analytic peak: what the DNAS working-memory proxy
				// bounds, after the planner's per-buffer alignment.
				peak := 0
				for _, l := range a.Layers {
					if ws := alignUp(int(l.InBytes())) + alignUp(int(l.OutBytes())); ws > peak {
						peak = ws
					}
				}
				if plan.ArenaBytes > peak {
					t.Fatalf("chain model: planned arena %d exceeds analytic peak working set %d", plan.ArenaBytes, peak)
				}
			}
		})
	}
}

// naiveArenaBytes is the arena size without buffer reuse (sum of all
// tensor buffers): the upper bound every plan must meet.
func naiveArenaBytes(m *graph.Model) int {
	s := 0
	for _, t := range m.Tensors {
		s += alignUp(t.Bytes())
	}
	return s
}

// checkBytes reports which of c's budgets a lowered model exceeds, given
// its byte-denominated usage: weight bytes, the planned arena and ops as
// 2*MACs.
func checkBytes(c core.Constraints, weightBytes, arenaBytes, ops float64) []string {
	var v []string
	if c.MaxWeightBytes > 0 && weightBytes > c.MaxWeightBytes {
		v = append(v, fmt.Sprintf("weight bytes %.0f > %.0f", weightBytes, c.MaxWeightBytes))
	}
	if c.MaxArenaBytes > 0 && arenaBytes > c.MaxArenaBytes {
		v = append(v, fmt.Sprintf("arena bytes %.0f > %.0f", arenaBytes, c.MaxArenaBytes))
	}
	if c.MaxOps > 0 && ops > c.MaxOps {
		v = append(v, fmt.Sprintf("ops %.0f > %.0f", ops, c.MaxOps))
	}
	return v
}
