package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"micronets/internal/arch"
)

// Space is the DS-CNN architecture search space of one task, in its
// discrete form, parameterized the way the paper's KWS/AD spaces are
// (§5.2.2, §5.2.3): a first standard convolution followed by a
// variable-depth stack of depthwise-separable blocks with per-block
// searchable widths (multiples of 4, the CMSIS-NN fast-path granularity),
// then the task's fixed average-pool+classifier tail. A candidate is fully
// described by its width vector [firstConvC, dsC0, dsC1, ...]; strides are
// a deterministic function of position (Stride2Head, Stride2Tail), which
// keeps every sampled and mutated candidate geometrically valid. A Space
// is a plain value that encodes to JSON; Supernet derives its relaxation.
type Space struct {
	Task                   string
	InputH, InputW, InputC int
	NumClasses             int
	FirstKH, FirstKW       int
	FirstStride            int
	// PoolKH/PoolKW is the fixed VALID average-pool tail; the strides
	// bring every candidate's last feature map to exactly this size.
	PoolKH, PoolKW int
	// MinBlocks/MaxBlocks bound the DS-block count.
	MinBlocks, MaxBlocks int
	// MinC/MaxC bound every width; both multiples of 4.
	MinC, MaxC int
	// Stride2Head/Stride2Tail count the stride-2 DS blocks at the head
	// and the tail of the stack; the blocks between have stride 1.
	Stride2Head, Stride2Tail int
}

// spaces are the search spaces of SpaceForTask.
var spaces = map[string]Space{
	// 49x10 MFCC input; the first DS block downsamples to 25x5, which the
	// 25x5 average pool collapses — the Table 5 KWS geometry.
	"kws": {
		Task: "kws", InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		FirstKH: 10, FirstKW: 4, FirstStride: 1,
		PoolKH: 25, PoolKW: 5,
		MinBlocks: 2, MaxBlocks: 8, MinC: 8, MaxC: 256,
		Stride2Head: 1,
	},
	// 32x32 spectrogram patches; stride 2 on the first and last two DS
	// blocks takes 32 -> 4 for the 4x4 pool — the MicroNet-AD geometry.
	"ad": {
		Task: "ad", InputH: 32, InputW: 32, InputC: 1, NumClasses: 4,
		FirstKH: 3, FirstKW: 3, FirstStride: 1,
		PoolKH: 4, PoolKW: 4,
		MinBlocks: 3, MaxBlocks: 7, MinC: 8, MaxC: 256,
		Stride2Head: 1, Stride2Tail: 2,
	},
}

// SpaceForTask returns the search space for a task ("kws" or "ad").
func SpaceForTask(task string) (*Space, error) {
	sp, ok := spaces[task]
	if !ok {
		return nil, fmt.Errorf("core: no search space for task %q (have kws, ad)", task)
	}
	return &sp, nil
}

// Digest is a short hex sha256 of the space's JSON encoding, which names
// the space a trial log record was drawn from.
func (s *Space) Digest() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of ints and a string always encodes
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))[:16]
}

// stride is the stride of DS block i of n.
func (s *Space) stride(i, n int) int {
	if i < s.Stride2Head || i >= n-s.Stride2Tail {
		return 2
	}
	return 1
}

// Supernet returns the space's DNAS relaxation (§5.2.2, §5.2.3): a first
// conv and blocks DS blocks at the space's strides, every width decision
// over the eight steps maxC·i/8 snapped into the space's width bounds
// (clampWidth, deduplicated), and exactly the stride-1 blocks skippable,
// so every subnet keeps the spatial schedule the pool needs. Every option
// is thus a width Build deploys: the channel mask trains, the resource
// model charges and Discretize deploys the same network.
func (s *Space) Supernet(maxC, blocks int) SupernetConfig {
	var opts []int
	for i := 1; i <= 8; i++ {
		if c := s.clampWidth(maxC * i / 8); !slices.Contains(opts, c) {
			opts = append(opts, c)
		}
	}
	return SupernetConfig{Space: s, WidthOptions: opts, Blocks: blocks}
}

// clampWidth snaps a width into [MinC, MaxC] on the multiple-of-4 grid.
func (s *Space) clampWidth(c int) int {
	c = (c + 3) / 4 * 4
	if c < s.MinC {
		c = s.MinC
	}
	if c > s.MaxC {
		c = s.MaxC
	}
	return c
}

// randWidth samples a width log-uniformly (so small and large widths are
// both explored rather than the grid being dominated by wide blocks).
func (s *Space) randWidth(rng *rand.Rand) int {
	lo, hi := float64(s.MinC), float64(s.MaxC)
	c := lo * math.Pow(hi/lo, rng.Float64())
	return s.clampWidth(int(c))
}

// Build constructs the Spec for a width vector (first conv width followed
// by one width per DS block).
func (s *Space) Build(name string, widths []int) *arch.Spec {
	n := len(widths) - 1
	spec := &arch.Spec{
		Name: name, Task: s.Task, Source: "search",
		InputH: s.InputH, InputW: s.InputW, InputC: s.InputC,
		NumClasses: s.NumClasses,
		// Exactly n+3 blocks: a search keeps every trial's spec, so
		// append's spare capacity would be retained once per trial.
		Blocks: make([]arch.Block, 0, n+3),
	}
	spec.Blocks = append(spec.Blocks, arch.Block{
		Kind: arch.Conv, KH: s.FirstKH, KW: s.FirstKW,
		OutC: s.clampWidth(widths[0]), Stride: s.FirstStride,
	})
	for i := 0; i < n; i++ {
		spec.Blocks = append(spec.Blocks, arch.Block{
			Kind: arch.DSBlock, KH: 3, KW: 3,
			OutC: s.clampWidth(widths[i+1]), Stride: s.stride(i, n),
		})
	}
	spec.Blocks = append(spec.Blocks,
		arch.Block{Kind: arch.AvgPool, KH: s.PoolKH, KW: s.PoolKW, Stride: 1},
		arch.Block{Kind: arch.Dense, OutC: s.NumClasses},
	)
	return spec
}

// Random samples a candidate uniformly in depth and log-uniformly in
// width.
func (s *Space) Random(name string, rng *rand.Rand) *arch.Spec {
	n := s.MinBlocks + rng.Intn(s.MaxBlocks-s.MinBlocks+1)
	widths := make([]int, n+1)
	for i := range widths {
		widths[i] = s.randWidth(rng)
	}
	return s.Build(name, widths)
}

// Widths extracts the width vector from a spec (first conv plus DS
// blocks), the inverse of Build. The depth is clamped to the space's
// bounds: a DNAS warm start with fewer than MinBlocks blocks is padded by
// repeating its last width.
func (s *Space) Widths(spec *arch.Spec) []int {
	var widths []int
	for _, b := range spec.Blocks {
		switch b.Kind {
		case arch.Conv:
			if len(widths) == 0 {
				widths = append(widths, b.OutC)
			}
		case arch.DSBlock:
			if len(widths) > 0 {
				widths = append(widths, b.OutC)
			}
		}
	}
	if len(widths) == 0 {
		widths = []int{s.MinC}
	}
	for len(widths)-1 < s.MinBlocks {
		widths = append(widths, widths[len(widths)-1])
	}
	if len(widths)-1 > s.MaxBlocks {
		widths = widths[:s.MaxBlocks+1]
	}
	return widths
}

// Mutate derives a new candidate from a parent via one of three
// evolutionary moves — jitter one width, insert a block (duplicating a
// neighbor's width), or remove a block — always staying inside the space.
func (s *Space) Mutate(name string, parent *arch.Spec, rng *rand.Rand) *arch.Spec {
	widths := s.Widths(parent)
	n := len(widths) - 1
	switch op := rng.Intn(3); {
	case op == 1 && n < s.MaxBlocks:
		// Insert a DS block, copying the width at the insertion point.
		at := 1 + rng.Intn(n+1)
		widths = append(widths[:at], append([]int{widths[min(at, len(widths)-1)]}, widths[at:]...)...)
	case op == 2 && n > s.MinBlocks:
		at := 1 + rng.Intn(n)
		widths = append(widths[:at], widths[at+1:]...)
	default:
		// Width jitter: one position, one to three grid steps either way.
		at := rng.Intn(len(widths))
		delta := 4 * (1 + rng.Intn(3))
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		widths[at] = s.clampWidth(widths[at] + delta)
	}
	return s.Build(name, widths)
}
