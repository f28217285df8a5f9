package core

import (
	"fmt"
	"math/rand"

	"micronets/internal/arch"
)

// Random model sampling from parameterized supernet backbones — the
// methodology of §3.3: "we setup a parameterized supernet backbone that we
// randomly sample. This allows us to automatically generate a large number
// of random models with different layer types and dimensions."

// RandomKWSModel samples a model of the KWS search space: random depth
// (2..7 DS blocks) and random multiple-of-4 widths (16..252).
func RandomKWSModel(rng *rand.Rand, idx int) *arch.Spec {
	widths := make([]int, 1+2+rng.Intn(6))
	for i := range widths {
		widths[i] = 4 * (4 + rng.Intn(60))
	}
	sp := spaces["kws"]
	spec := sp.Build(fmt.Sprintf("rand-kws-%d", idx), widths)
	spec.Source = "repro"
	return spec
}

// RandomImageModel samples a CIFAR10-style image-classification model
// (32x32x3 input) from a MobileNetV2-like inverted-bottleneck backbone —
// the image backbone of Figures 4 and 5. IBN stacks spend a larger share
// of their ops in depthwise and narrow expansion layers, which is what
// gives the image backbone its ~40% lower Mops/s than the KWS backbone.
func RandomImageModel(rng *rand.Rand, idx int) *arch.Spec {
	spec := &arch.Spec{
		Name: fmt.Sprintf("rand-img-%d", idx), Task: "vww", Source: "repro",
		InputH: 32, InputW: 32, InputC: 3, NumClasses: 10,
	}
	// The image backbone's narrower layers and heavier depthwise share
	// keep its sustained Mops/s ~40% below the KWS backbone's (§3.3); an
	// occasional non-multiple-of-4 width (the VWW space searches 10%..100%
	// of MobileNetV2 widths, not 4-aligned ones) adds alignment-penalty
	// scatter.
	spec.Blocks = append(spec.Blocks, arch.Block{
		Kind: arch.Conv, KH: 3, KW: 3, OutC: 4 * (2 + rng.Intn(8)), Stride: 1,
	})
	stages := 2 + rng.Intn(2) // 2..3 downsampling stages
	for s := 0; s < stages; s++ {
		c := 4 * (4 + rng.Intn(12))
		e := c * (2 + rng.Intn(4))
		spec.Blocks = append(spec.Blocks, arch.Block{
			Kind: arch.IBN, KH: 3, KW: 3, Expand: e, OutC: c, Stride: 2,
		})
		per := 1 + rng.Intn(3)
		for i := 0; i < per; i++ {
			spec.Blocks = append(spec.Blocks, arch.Block{
				Kind: arch.IBN, KH: 3, KW: 3, Expand: c * (2 + rng.Intn(4)), OutC: c, Stride: 1,
			})
		}
	}
	spec.Blocks = append(spec.Blocks,
		arch.Block{Kind: arch.GlobalPool},
		arch.Block{Kind: arch.Dense, OutC: 10},
	)
	return spec
}

// RandomLayer describes a single-layer micro-benchmark for the layer-wise
// characterization of Figure 3.
type RandomLayer struct {
	Kind string // "conv", "dwconv", "fc"
	Spec *arch.Spec
}

// RandomSingleLayer samples one layer of the given kind with random
// dimensions, wrapped in a minimal Spec so it can be lowered and costed.
// Channel counts are NOT restricted to multiples of four: Figure 3's
// spread includes the CMSIS-NN alignment penalty.
func RandomSingleLayer(rng *rand.Rand, kind string, idx int) RandomLayer {
	name := fmt.Sprintf("layer-%s-%d", kind, idx)
	switch kind {
	case "conv":
		hw := []int{8, 16, 24, 32, 48, 64}[rng.Intn(6)]
		inC := 4 + rng.Intn(124)
		outC := 4 + rng.Intn(124)
		k := []int{1, 3, 5}[rng.Intn(3)]
		return RandomLayer{Kind: kind, Spec: &arch.Spec{
			Name: name, Task: "bench", InputH: hw, InputW: hw, InputC: inC,
			Blocks: []arch.Block{{Kind: arch.Conv, KH: k, KW: k, OutC: outC, Stride: 1 + rng.Intn(2)}},
		}}
	case "dwconv":
		hw := []int{8, 16, 24, 32, 48, 64}[rng.Intn(6)]
		c := 8 + rng.Intn(248)
		return RandomLayer{Kind: kind, Spec: &arch.Spec{
			Name: name, Task: "bench", InputH: hw, InputW: hw, InputC: c,
			Blocks: []arch.Block{
				{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: c, Stride: 1 + rng.Intn(2)},
			},
		}}
	case "fc":
		in := 64 + rng.Intn(1984)
		out := 16 + rng.Intn(496)
		return RandomLayer{Kind: kind, Spec: &arch.Spec{
			Name: name, Task: "bench", InputH: 1, InputW: 1, InputC: in,
			Blocks: []arch.Block{{Kind: arch.Dense, OutC: out}},
		}}
	default:
		panic(fmt.Sprintf("core: unknown layer kind %q", kind))
	}
}
