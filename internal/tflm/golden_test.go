package tflm

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"micronets/internal/graph"
	"micronets/internal/kernels"
	"micronets/internal/tensor"
	"micronets/internal/zoo"
)

// The golden end-to-end regression: fixed-seed zoo specs are lowered,
// planned and invoked on a fixed input, and the quantized output logits
// are compared byte-for-byte against checked-in vectors. Any kernel,
// planner or lowering refactor that changes numerics — even by one
// rounding — fails here and must consciously regenerate the goldens:
//
//	go test ./internal/tflm -run TestGoldenLogits -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_logits.json from the current implementation")

const goldenPath = "testdata/golden_logits.json"

// goldenModels picks specs covering every op the runtime implements:
// conv/dwconv chains (KWS), IBN expand/dw/project with residual adds
// (MBNETV2), pure dense stacks (FC-AE), and the AD geometry.
var goldenModels = []string{
	"MicroNet-KWS-S",
	"DSCNN-S",
	"MBNETV2-S",
	"MicroNet-AD-S",
	"FC-AE(Baseline)",
}

const goldenWeightSeed = 42

// goldenEntry is one model's pinned behaviour: the planner's arena size
// and the exact output bytes from both engines (they must agree, so one
// vector serves for both).
type goldenEntry struct {
	WeightSeed int    `json:"weight_seed"`
	InputSeed  int    `json:"input_seed"`
	ArenaBytes int    `json:"arena_bytes"`
	Logits     []int8 `json:"logits"`
}

// goldenInput synthesizes the fixed input: deterministic uniform floats
// in [-1, 1) shaped to the model input.
func goldenInput(m *graph.Model, seed int64) *tensor.Tensor {
	in := m.Tensors[m.Input]
	x := tensor.New(in.H, in.W, in.C)
	rng := rand.New(rand.NewSource(seed))
	for i := range x.Data {
		x.Data[i] = float32(rng.Float64()*2 - 1)
	}
	return x
}

// runGolden lowers, plans and invokes one zoo model on an engine,
// returning the raw quantized output and the planned arena size.
func runGolden(t *testing.T, name string, eng kernels.Engine) ([]int8, int) {
	t.Helper()
	e, err := zoo.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(goldenWeightSeed)), graph.LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := NewInterpreterWithEngine(m, 0, eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.SetInputFloat(goldenInput(m, goldenWeightSeed+1)); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	out := append([]int8(nil), ip.Output()...)
	return out, ip.prep.plan.ArenaBytes
}

func TestGoldenLogits(t *testing.T) {
	if *updateGolden {
		golden := map[string]goldenEntry{}
		for _, name := range goldenModels {
			logits, arena := runGolden(t, name, kernels.Default)
			golden[name] = goldenEntry{
				WeightSeed: goldenWeightSeed, InputSeed: goldenWeightSeed + 1,
				ArenaBytes: arena, Logits: logits,
			}
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d models", goldenPath, len(golden))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden vectors (run with -update-golden to create): %v", err)
	}
	var golden map[string]goldenEntry
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, name := range goldenModels {
		name := name
		t.Run(name, func(t *testing.T) {
			want, ok := golden[name]
			if !ok {
				t.Fatalf("no golden entry for %s (regenerate with -update-golden)", name)
			}
			for _, eng := range []kernels.Engine{kernels.Default, kernels.Reference} {
				logits, arena := runGolden(t, name, eng)
				if arena != want.ArenaBytes {
					t.Errorf("%s: arena %d bytes, golden %d — the planner changed its layout",
						eng.Name(), arena, want.ArenaBytes)
				}
				if len(logits) != len(want.Logits) {
					t.Fatalf("%s: %d output bytes, golden %d", eng.Name(), len(logits), len(want.Logits))
				}
				for i := range logits {
					if logits[i] != want.Logits[i] {
						t.Fatalf("%s: logits[%d] = %d, golden %d — numerics changed; if intentional, regenerate with -update-golden",
							eng.Name(), i, logits[i], want.Logits[i])
					}
				}
			}
		})
	}
}
