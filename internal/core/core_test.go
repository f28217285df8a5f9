package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"micronets/internal/arch"
	ag "micronets/internal/autograd"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

// TestWidthOptions: a supernet's width options are the eight steps
// maxC·i/8 rounded up to multiples of 4, here of the paper's 276-channel
// KWS supernet (§5.2.2) in a space wide enough to hold them all.
func TestWidthOptions(t *testing.T) {
	sp := &Space{MinC: 4, MaxC: 512}
	opts := sp.Supernet(276, 9).WidthOptions
	if want := []int{36, 72, 104, 140, 172, 208, 244, 276}; !slices.Equal(opts, want) {
		t.Fatalf("options %v, want %v", opts, want)
	}
}

func TestDecisionNodeWeights(t *testing.T) {
	d := NewDecisionNode("d", 4)
	// Uniform logits -> uniform softmax.
	z := d.Weights(nil, 1)
	for _, v := range z.Value.Data {
		if math.Abs(float64(v)-0.25) > 1e-5 {
			t.Fatalf("uniform weights wrong: %v", z.Value.Data)
		}
	}
	// Gumbel samples are a valid distribution and vary.
	rng := rand.New(rand.NewSource(1))
	z1 := d.Weights(rng, 1)
	z2 := d.Weights(rng, 1)
	var s float32
	diff := false
	for i := range z1.Value.Data {
		s += z1.Value.Data[i]
		if z1.Value.Data[i] != z2.Value.Data[i] {
			diff = true
		}
	}
	if math.Abs(float64(s)-1) > 1e-5 {
		t.Fatalf("gumbel weights sum to %v", s)
	}
	if !diff {
		t.Fatal("gumbel samples must vary")
	}
	// Low temperature concentrates on the argmax.
	d.Alpha.Value.Data[2] = 5
	zc := d.Weights(nil, 0.1)
	if zc.Value.Data[2] < 0.99 {
		t.Fatalf("low-tau weights not concentrated: %v", zc.Value.Data)
	}
	if d.ArgMax() != 2 {
		t.Fatalf("ArgMax = %d", d.ArgMax())
	}
}

func TestChannelMask(t *testing.T) {
	z := ag.Constant(tensor.FromSlice([]float32{0.5, 0.5}, 2))
	m := channelMask(z, []int{2, 4})
	want := []float32{1, 1, 0.5, 0.5}
	for i := range want {
		if math.Abs(float64(m.Value.Data[i]-want[i])) > 1e-6 {
			t.Fatalf("mask = %v, want %v", m.Value.Data, want)
		}
	}
}

// tinyConfig relaxes an 8×8, 3-class space whose first DS block halves
// the input for a 4×4 pool: widths 4 or 8, the second block skippable.
func tinyConfig() SupernetConfig {
	sp := &Space{
		Task: "kws", InputH: 8, InputW: 8, InputC: 1, NumClasses: 3,
		FirstKH: 3, FirstKW: 3, FirstStride: 1,
		PoolKH: 4, PoolKW: 4,
		MinBlocks: 1, MaxBlocks: 2, MinC: 4, MaxC: 8,
		Stride2Head: 1,
	}
	return sp.Supernet(8, 2)
}

// harnessConfig is the supernet the search harness builds for task.
func harnessConfig(t *testing.T, task string) SupernetConfig {
	t.Helper()
	return spaceFor(t, task).Supernet(64, 4)
}

func spaceFor(t *testing.T, task string) *Space {
	t.Helper()
	sp, err := SpaceForTask(task)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// resourceConfigs are the supernets the resource-model tests cover: both
// DNAS spaces at the harness's size and at two narrower ones whose raw
// WidthOptions fall below the spaces' MinC, and tinyConfig.
func resourceConfigs(t *testing.T) map[string]SupernetConfig {
	cfgs := map[string]SupernetConfig{"tiny": tinyConfig()}
	for _, task := range []string{"kws", "ad"} {
		for _, size := range [][2]int{{64, 4}, {32, 3}, {16, 3}} {
			cfgs[fmt.Sprintf("%s(%d,%d)", task, size[0], size[1])] = spaceFor(t, task).Supernet(size[0], size[1])
		}
	}
	return cfgs
}

// TestSupernetOptionsDeployable: every width option of a space's
// supernet is a width Build deploys unchanged — at least MinC, on the
// multiple-of-4 grid, no duplicates — including the narrow supernets whose
// raw WidthOptions start below MinC, so the channel mask never trains a
// width that Discretize and the resource model replace with MinC.
func TestSupernetOptionsDeployable(t *testing.T) {
	for _, task := range []string{"kws", "ad"} {
		sp := spaceFor(t, task)
		for _, size := range [][2]int{{16, 3}, {32, 3}} {
			opts := sp.Supernet(size[0], size[1]).WidthOptions
			seen := map[int]bool{}
			for _, c := range opts {
				if c < sp.MinC || sp.clampWidth(c) != c || seen[c] {
					t.Errorf("%s Supernet(%d,%d): option %d of %v is not a distinct deployable width (MinC %d)",
						task, size[0], size[1], c, opts, sp.MinC)
				}
				seen[c] = true
			}
		}
	}
}

// decisions returns every decision node of s.
func decisions(s *Supernet) []*DecisionNode {
	nodes := []*DecisionNode{s.firstNode}
	nodes = append(nodes, s.width...)
	for _, d := range s.depth {
		if d != nil {
			nodes = append(nodes, d)
		}
	}
	return nodes
}

// dsStrides returns the stride of each DS block's depthwise layer in s's
// shared network.
func dsStrides(s *Supernet) []int {
	var strides []int
	for _, block := range s.net.Layers[1 : len(s.width)+1] {
		strides = append(strides, block.(*nn.Sequential).Layers[0].(*nn.DepthwiseConv2D).Stride)
	}
	return strides
}

// evalResources runs an eval-mode Forward of s on one random input.
func evalResources(s *Supernet, rng *rand.Rand) *Resources {
	sp := s.cfg.Space
	x := ag.Constant(tensor.Randn(rng, 1, 1, sp.InputH, sp.InputW, sp.InputC))
	_, z := s.Forward(x, false, nil, 1)
	return s.Resources(z)
}

// choose makes option k of d the only one with weight: logits ±50.
func choose(d *DecisionNode, k int) {
	for i := range d.Alpha.Value.Data {
		d.Alpha.Value.Data[i] = -50
	}
	d.Alpha.Value.Data[k] = 50
}

func TestSupernetForwardShapesAndResources(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := NewSupernet(rng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := ag.Constant(tensor.Randn(rng, 1, 2, 8, 8, 1))
	logits, z := s.Forward(x, false, rng, 1)
	res := s.Resources(z)
	if logits.Value.Shape[0] != 2 || logits.Value.Shape[1] != 3 {
		t.Fatalf("logits shape %v", logits.Value.Shape)
	}
	if res.ParamCount.Scalar() <= 0 || res.OpCount.Scalar() <= 0 {
		t.Fatal("resources must be positive")
	}
	if len(res.WorkMemTerms) == 0 {
		t.Fatal("working-memory terms missing")
	}
	if res.WorkingMemory().Scalar() <= 0 {
		t.Fatal("working memory must be positive")
	}
}

func TestResourceModelMatchesDiscreteAnalysis(t *testing.T) {
	// At one-hot decisions the differentiable resource model must equal
	// arch.Analyze on the discretized spec exactly, in both DNAS spaces,
	// including the narrow supernets whose options Supernet clamps.
	for name, cfg := range resourceConfigs(t) {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s, err := NewSupernet(rng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range decisions(s) {
				choose(d, rng.Intn(d.K))
			}
			res := evalResources(s, rng)
			a, err := s.Discretize("check").Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if got := float64(res.ParamCount.Scalar()); got != float64(a.TotalParams) {
				t.Errorf("%s seed %d: params %v, Analyze %d", name, seed, got, a.TotalParams)
			}
			if got := float64(res.OpCount.Scalar()); got != float64(a.TotalOps()) {
				t.Errorf("%s seed %d: ops %v, Analyze %d", name, seed, got, a.TotalOps())
			}
			if got := float64(res.WorkingMemory().Scalar()); got != float64(a.PeakWorkingSetBytes) {
				t.Errorf("%s seed %d: working memory %v, Analyze %d", name, seed, got, a.PeakWorkingSetBytes)
			}
		}
	}
}

// TestResourceModelIsExpectation: with one decision at a 50/50 mix of two
// options and every other one-hot, the resource model's params and ops
// are the mean of Analyze over the two discretizations.
func TestResourceModelIsExpectation(t *testing.T) {
	for name, cfg := range resourceConfigs(t) {
		rng := rand.New(rand.NewSource(40))
		s, err := NewSupernet(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes := decisions(s)
		for trial := 0; trial < 10; trial++ {
			for _, d := range nodes {
				choose(d, rng.Intn(d.K))
			}
			d := nodes[rng.Intn(len(nodes))]
			k := rng.Perm(d.K)[:2]
			var params, ops float64
			for _, opt := range k {
				choose(d, opt)
				a, err := s.Discretize("check").Analyze()
				if err != nil {
					t.Fatal(err)
				}
				params += float64(a.TotalParams) / 2
				ops += float64(a.TotalOps()) / 2
			}
			d.Alpha.Value.Data[k[0]] = 50
			res := evalResources(s, rng)
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"params", float64(res.ParamCount.Scalar()), params},
				{"ops", float64(res.OpCount.Scalar()), ops},
			} {
				if math.Abs(c.got-c.want) > 1e-6*c.want {
					t.Errorf("%s: %s at 50/50 on %s options %v: %v, mean of Analyze %v", name, c.what, d.Name, k, c.got, c.want)
				}
			}
		}
	}
}

func TestPenaltyZeroWhenUnderBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s, _ := NewSupernet(rng, tinyConfig())
	x := ag.Constant(tensor.Randn(rng, 1, 1, 8, 8, 1))
	_, z := s.Forward(x, false, nil, 1)
	res := s.Resources(z)
	cons := Constraints{MaxWeightBytes: 1e9, MaxArenaBytes: 1e9, MaxOps: 1e9}
	if p := cons.Penalty(res).Scalar(); p != 0 {
		t.Fatalf("penalty %v under budget, want 0", p)
	}
	tight := Constraints{MaxOps: 1}
	if p := tight.Penalty(res).Scalar(); p <= 0 {
		t.Fatal("penalty must be positive when over budget")
	}
}

func TestPenaltyGradientPushesTowardSmaller(t *testing.T) {
	// One arch step against a tight ops budget must increase the logit of
	// the narrower width option.
	rng := rand.New(rand.NewSource(5))
	s, _ := NewSupernet(rng, tinyConfig())
	cons := Constraints{MaxOps: 1}
	x := ag.Constant(tensor.Randn(rng, 1, 2, 8, 8, 1))
	before := probabilities(s.width[0])[0]
	for i := 0; i < 10; i++ {
		_, z := s.Forward(x, false, rng, 2)
		pen := cons.Penalty(s.Resources(z))
		ag.Backward(pen)
		opt := nn.NewSGD(0)
		opt.Step(s.ArchParams(), 0.5)
	}
	after := probabilities(s.width[0])[0]
	if after <= before {
		t.Fatalf("narrow-width probability must rise under ops pressure: %v -> %v", before, after)
	}
}

func TestDiscretizeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, _ := NewSupernet(rng, tinyConfig())
	s.depth[1].Alpha.Value.Data[1] = 10 // skip block 1
	spec := s.Discretize("d")
	// conv + block0 + pool + dense (block1 skipped).
	kinds := []arch.BlockKind{}
	for _, b := range spec.Blocks {
		kinds = append(kinds, b.Kind)
	}
	dsCount := 0
	for _, k := range kinds {
		if k == arch.DSBlock {
			dsCount++
		}
	}
	if dsCount != 1 {
		t.Fatalf("skipped block still present: %v", kinds)
	}
	if _, err := spec.Analyze(); err != nil {
		t.Fatalf("discretized spec invalid: %v", err)
	}
}

// TestSearchEndToEnd runs a tiny DNAS on a separable synthetic problem and
// asserts (a) it learns better than chance and (b) the discovered spec
// satisfies the constraints.
func TestSearchEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := tinyConfig()
	s, err := NewSupernet(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic 3-class task: class = which third of the image is bright.
	mkBatch := func(r *rand.Rand, n int) Batch {
		x := tensor.New(n, 8, 8, 1)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			c := r.Intn(3)
			labels[i] = c
			for y := 0; y < 8; y++ {
				for xx := 0; xx < 8; xx++ {
					v := float32(r.NormFloat64() * 0.3)
					if xx/3 == c || (c == 2 && xx >= 6) {
						v += 1.5
					}
					x.Data[(i*8+y)*8+xx] = v
				}
			}
		}
		return Batch{X: x, Labels: labels}
	}
	trainRng := rand.New(rand.NewSource(8))
	valRng := rand.New(rand.NewSource(9))
	cons := Constraints{MaxWeightBytes: 400, MaxOps: 40000, MaxArenaBytes: 2000}
	res, err := RunSearch(s,
		func(step int) Batch { return mkBatch(trainRng, 16) },
		func(step int) Batch { return mkBatch(valRng, 16) },
		cons,
		SearchConfig{
			Steps: 60, ArchStartStep: 10,
			WeightLR: nn.CosineSchedule{Start: 0.05, End: 0.005, Steps: 60},
			Seed:     10,
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec == nil {
		t.Fatal("no spec discovered")
	}
	a, err := res.Spec.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if float64(a.TotalParams) > cons.MaxWeightBytes {
		t.Errorf("discovered spec params %d exceed budget %.0f", a.TotalParams, cons.MaxWeightBytes)
	}
	if float64(a.TotalOps()) > cons.MaxOps {
		t.Errorf("discovered spec ops %d exceed budget %.0f", a.TotalOps(), cons.MaxOps)
	}
	// The supernet itself should classify better than chance by now.
	b := mkBatch(rand.New(rand.NewSource(11)), 60)
	logits, _ := s.Forward(ag.Constant(b.X), false, nil, 0.1)
	correct := 0
	for i, y := range b.Labels {
		row := logits.Value.Data[i*3 : (i+1)*3]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == y {
			correct++
		}
	}
	if correct < 30 { // chance is 20/60
		t.Fatalf("supernet accuracy %d/60 not better than chance", correct)
	}
}

func TestRandomModelsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 30; i++ {
		k := RandomKWSModel(rng, i)
		if _, err := k.Analyze(); err != nil {
			t.Fatalf("random kws %d invalid: %v", i, err)
		}
		// A search keeps every trial's spec: Build must not leave
		// append's spare capacity behind.
		if len(k.Blocks) != cap(k.Blocks) {
			t.Fatalf("random kws %d: %d blocks in a slice of capacity %d", i, len(k.Blocks), cap(k.Blocks))
		}
		m := RandomImageModel(rng, i)
		if _, err := m.Analyze(); err != nil {
			t.Fatalf("random image %d invalid: %v", i, err)
		}
	}
	for _, kind := range []string{"conv", "dwconv", "fc"} {
		l := RandomSingleLayer(rng, kind, 0)
		if _, err := l.Spec.Analyze(); err != nil {
			t.Fatalf("random layer %s invalid: %v", kind, err)
		}
	}
}

// TestDiscretizeStaysInSpace: the architectures the harness's supernets
// discretize to keep the space's geometry. Over every subset of skipped
// blocks and random widths, the kept blocks keep their supernet strides,
// and Build(Widths(d)) gives d back whenever d is deep enough for the
// space. Not every d is: KWS's Supernet(64, 4) can keep one DS block,
// below the space's MinBlocks of 2, and Widths pads such a d.
func TestDiscretizeStaysInSpace(t *testing.T) {
	for _, task := range []string{"kws", "ad"} {
		cfg := harnessConfig(t, task)
		sp := cfg.Space
		rng := rand.New(rand.NewSource(30))
		s, err := NewSupernet(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var skippable []int
		for i, d := range s.depth {
			if d != nil {
				skippable = append(skippable, i)
			}
		}
		for subset := 0; subset < 1<<len(skippable); subset++ {
			skipped := make([]bool, len(s.width))
			for j, i := range skippable {
				skipped[i] = subset>>j&1 == 1
				choose(s.depth[i], subset>>j&1)
			}
			var want []int
			for i, stride := range dsStrides(s) {
				if !skipped[i] {
					want = append(want, stride)
				}
			}
			for draw := 0; draw < 20; draw++ {
				choose(s.firstNode, rng.Intn(s.firstNode.K))
				for _, n := range s.width {
					choose(n, rng.Intn(n.K))
				}
				d := s.Discretize("d")
				var strides []int
				for _, b := range d.Blocks {
					if b.Kind == arch.DSBlock {
						strides = append(strides, b.Stride)
					}
				}
				if !slices.Equal(strides, want) {
					t.Fatalf("%s subset %b: DS strides %v, supernet's kept strides %v", task, subset, strides, want)
				}
				if len(strides) < sp.MinBlocks {
					continue
				}
				back := sp.Build(d.Name, sp.Widths(d))
				back.Source = d.Source
				if !reflect.DeepEqual(back, d) {
					t.Fatalf("%s subset %b: discretized %s is not in the space, which builds %s", task, subset, d, back)
				}
			}
		}
	}
}

// TestKWSAndADSupernetConfigs pins the supernets the harness derives from
// the two spaces: KWSSupernetConfig(49, 10, 12, 64, 4) and
// ADSupernetConfig(64, 4) before they were derived, except that AD's
// tail is now the space's 4×4 average pool instead of a global pool.
func TestKWSAndADSupernetConfigs(t *testing.T) {
	opts := []int{8, 16, 24, 32, 40, 48, 56, 64}
	for _, tc := range []struct {
		task                             string
		strides                          []int
		depth                            []string
		inH, inW, classes                int
		firstKH, firstKW, poolKH, poolKW int
	}{
		{"kws", []int{2, 1, 1, 1}, []string{"b2.depth", "b3.depth", "b4.depth"}, 49, 10, 12, 10, 4, 25, 5},
		{"ad", []int{2, 1, 2, 2}, []string{"b2.depth"}, 32, 32, 4, 3, 3, 4, 4},
	} {
		cfg := harnessConfig(t, tc.task)
		sp := cfg.Space
		if !slices.Equal(cfg.WidthOptions, opts) {
			t.Errorf("%s: width options %v, want %v", tc.task, cfg.WidthOptions, opts)
		}
		rng := rand.New(rand.NewSource(13))
		s, err := NewSupernet(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var depth []string
		for _, p := range s.ArchParams() {
			if strings.HasSuffix(p.Name, ".depth") {
				depth = append(depth, p.Name)
			}
		}
		if !slices.Equal(depth, tc.depth) {
			t.Errorf("%s: depth decisions %v, want %v", tc.task, depth, tc.depth)
		}
		if strides := dsStrides(s); !slices.Equal(strides, tc.strides) {
			t.Errorf("%s: block strides %v, want %v", tc.task, strides, tc.strides)
		}
		if sp.Task != tc.task || sp.InputH != tc.inH || sp.InputW != tc.inW || sp.InputC != 1 || sp.NumClasses != tc.classes ||
			sp.FirstKH != tc.firstKH || sp.FirstKW != tc.firstKW || sp.FirstStride != 1 ||
			sp.PoolKH != tc.poolKH || sp.PoolKW != tc.poolKW {
			t.Errorf("%s: space geometry %+v", tc.task, *sp)
		}
		x := ag.Constant(tensor.Randn(rng, 1, 1, tc.inH, tc.inW, 1))
		if logits, _ := s.Forward(x, false, nil, 1); logits.Value.Shape[1] != tc.classes {
			t.Fatalf("%s supernet logits %v, want %d classes", tc.task, logits.Value.Shape, tc.classes)
		}
	}
}

// probabilities returns the softmax of d's logits as plain floats.
func probabilities(d *DecisionNode) []float32 {
	sm := ag.SoftmaxVec(ag.Constant(d.Alpha.Value), 1)
	return append([]float32(nil), sm.Value.Data...)
}

// phaseRun runs RunSearch on a fresh supernet built from cfg (seed 20)
// with one fixed train batch and one fixed val batch, whose labels the
// caller picks, and returns the supernet.
func phaseRun(t *testing.T, cfg SupernetConfig, trainLabels, valLabels []int, sc SearchConfig) *Supernet {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	s, err := NewSupernet(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := cfg.Space
	x := tensor.Randn(rng, 1, len(trainLabels), sp.InputH, sp.InputW, sp.InputC)
	vx := tensor.Randn(rng, 1, len(valLabels), sp.InputH, sp.InputW, sp.InputC)
	cons := Constraints{MaxWeightBytes: 400, MaxOps: 40000, MaxArenaBytes: 2000}
	if _, err := RunSearch(s,
		func(int) Batch { return Batch{X: x, Labels: trainLabels} },
		func(int) Batch { return Batch{X: vx, Labels: valLabels} },
		cons, sc); err != nil {
		t.Fatal(err)
	}
	return s
}

func sameValues(t *testing.T, what string, a, b []*nn.Param) {
	t.Helper()
	for i := range a {
		for j, v := range a[i].V.Value.Data {
			if w := b[i].V.Value.Data[j]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: %s[%d] = %v vs %v", what, a[i].Name, j, v, w)
			}
		}
	}
}

// TestArchStepIgnoresTrainLoss: the architecture update follows the val
// loss and penalty only. With the weights frozen (zero learning rate),
// two searches whose train batches differ only in their labels end with
// the same logits, bit for bit.
func TestArchStepIgnoresTrainLoss(t *testing.T) {
	sc := SearchConfig{Steps: 1, Seed: 21}
	val := []int{0, 1, 2, 0}
	a := phaseRun(t, tinyConfig(), []int{0, 1, 2, 1}, val, sc)
	b := phaseRun(t, tinyConfig(), []int{2, 2, 0, 0}, val, sc)
	sameValues(t, "arch logits", a.ArchParams(), b.ArchParams())
}

// TestWeightStepIgnoresValLoss: the weight update follows the train loss
// only. On a supernet whose every decision has one option, so that the
// logits cannot move, two searches whose val batches differ only in their
// labels end with the same weights after two steps, bit for bit. Its
// space gives both blocks stride 2 (8×8 to 2×2, for a 2×2 pool), so
// neither is skippable.
func TestWeightStepIgnoresValLoss(t *testing.T) {
	sp := &Space{
		Task: "kws", InputH: 8, InputW: 8, InputC: 1, NumClasses: 3,
		FirstKH: 3, FirstKW: 3, FirstStride: 1,
		PoolKH: 2, PoolKW: 2,
		MinBlocks: 2, MaxBlocks: 2, MinC: 8, MaxC: 8,
		Stride2Head: 2,
	}
	cfg := sp.Supernet(8, 2)
	sc := SearchConfig{Steps: 2, Seed: 22, WeightLR: nn.CosineSchedule{Start: 0.05, End: 0.05, Steps: 2}}
	train := []int{0, 1, 2, 1}
	a := phaseRun(t, cfg, train, []int{0, 1, 2, 0}, sc)
	b := phaseRun(t, cfg, train, []int{2, 2, 0, 1}, sc)
	sameValues(t, "arch logits", a.ArchParams(), b.ArchParams())
	sameValues(t, "weights", a.WeightParams(), b.WeightParams())
}
