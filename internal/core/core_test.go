package core

import (
	"math"
	"math/rand"
	"testing"

	"micronets/internal/arch"
	ag "micronets/internal/autograd"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

func TestWidthOptions(t *testing.T) {
	opts := WidthOptions(276, 8, true)
	for _, c := range opts {
		if c%4 != 0 {
			t.Fatalf("option %d not a multiple of 4", c)
		}
	}
	if opts[len(opts)-1] != 276 {
		t.Fatalf("largest option %d, want 276", opts[len(opts)-1])
	}
	for i := 1; i < len(opts); i++ {
		if opts[i] <= opts[i-1] {
			t.Fatal("options must be strictly increasing")
		}
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
	m := channelMask(z, []int{2, 4}, 4)
	want := []float32{1, 1, 0.5, 0.5}
	for i := range want {
		if math.Abs(float64(m.Value.Data[i]-want[i])) > 1e-6 {
			t.Fatalf("mask = %v, want %v", m.Value.Data, want)
		}
	}
}

func TestExpectedChannels(t *testing.T) {
	z := ag.Constant(tensor.FromSlice([]float32{0.25, 0.75}, 2))
	e := ExpectedChannels(z, []int{4, 8})
	if math.Abs(float64(e.Scalar())-7) > 1e-5 {
		t.Fatalf("E[c] = %v, want 7", e.Scalar())
	}
}

func tinyConfig() SupernetConfig {
	opts := []int{4, 8}
	return SupernetConfig{
		Name: "tiny", Task: "kws",
		InputH: 8, InputW: 8, InputC: 1, NumClasses: 3,
		FirstKH: 3, FirstKW: 3, FirstStride: 1,
		FirstWidthOptions: opts,
		MaxC:              8,
		Blocks: []SupernetBlock{
			{Stride: 2, WidthOptions: opts},
			{Stride: 1, WidthOptions: opts, Skippable: true},
		},
	}
}

func TestSupernetForwardShapesAndResources(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := NewSupernet(rng, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := ag.Constant(tensor.Randn(rng, 1, 2, 8, 8, 1))
	logits, res := s.Forward(x, false, rng, 1)
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
	// arch.Analyze on the discretized spec exactly, in both DNAS spaces
	// at the sizes the search harness builds them.
	for _, tc := range []struct {
		name string
		cfg  SupernetConfig
	}{
		{"kws", KWSSupernetConfig(49, 10, 12, 64, 4)},
		{"ad", ADSupernetConfig(64, 4)},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s, err := NewSupernet(rng, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes := []*DecisionNode{s.firstNode}
			nodes = append(nodes, s.width...)
			for _, d := range s.depth {
				if d != nil {
					nodes = append(nodes, d)
				}
			}
			for _, d := range nodes {
				pick := rng.Intn(d.K)
				for k := range d.Alpha.Value.Data {
					d.Alpha.Value.Data[k] = -50
				}
				d.Alpha.Value.Data[pick] = 50
			}
			x := ag.Constant(tensor.Randn(rng, 1, 1, tc.cfg.InputH, tc.cfg.InputW, tc.cfg.InputC))
			_, res := s.Forward(x, false, nil, 1)
			a, err := s.Discretize("check").Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if got := float64(res.ParamCount.Scalar()); got != float64(a.TotalParams) {
				t.Errorf("%s seed %d: params %v, Analyze %d", tc.name, seed, got, a.TotalParams)
			}
			if got := float64(res.OpCount.Scalar()); got != float64(a.TotalOps()) {
				t.Errorf("%s seed %d: ops %v, Analyze %d", tc.name, seed, got, a.TotalOps())
			}
			if got := float64(res.WorkingMemory().Scalar()); got != float64(a.PeakWorkingSetBytes) {
				t.Errorf("%s seed %d: working memory %v, Analyze %d", tc.name, seed, got, a.PeakWorkingSetBytes)
			}
		}
	}
}

func TestPenaltyZeroWhenUnderBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s, _ := NewSupernet(rng, tinyConfig())
	x := ag.Constant(tensor.Randn(rng, 1, 1, 8, 8, 1))
	_, res := s.Forward(x, false, nil, 1)
	cons := Constraints{MaxWeightBytes: 1e9, MaxArenaBytes: 1e9, MaxOps: 1e9}
	if p := cons.Penalty(res).Scalar(); p != 0 {
		t.Fatalf("penalty %v under budget, want 0", p)
	}
	tight := Constraints{MaxOps: 1}
	if p := tight.Penalty(res).Scalar(); p <= 0 {
		t.Fatal("penalty must be positive when over budget")
	}
	if len(tight.Violations(res)) == 0 {
		t.Fatal("violations must be reported")
	}
}

func TestPenaltyGradientPushesTowardSmaller(t *testing.T) {
	// One arch step against a tight ops budget must increase the logit of
	// the narrower width option.
	rng := rand.New(rand.NewSource(5))
	s, _ := NewSupernet(rng, tinyConfig())
	cons := Constraints{MaxOps: 1, LambdaOps: 10}
	x := ag.Constant(tensor.Randn(rng, 1, 2, 8, 8, 1))
	before := probabilities(s.width[0])[0]
	for i := 0; i < 10; i++ {
		_, res := s.Forward(x, false, rng, 2)
		pen := cons.Penalty(res)
		ag.Backward(pen)
		opt := nn.NewSGD(0, 0)
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
	cons := Constraints{MaxWeightBytes: 400, MaxOps: 40000, MaxArenaBytes: 2000, LambdaOps: 5, LambdaParams: 5, LambdaMem: 5}
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

func TestKWSAndADSupernetConfigs(t *testing.T) {
	cfg := KWSSupernetConfig(49, 10, 12, 64, 4)
	rng := rand.New(rand.NewSource(13))
	s, err := NewSupernet(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := ag.Constant(tensor.Randn(rng, 1, 1, 49, 10, 1))
	logits, _ := s.Forward(x, false, nil, 1)
	if logits.Value.Shape[1] != 12 {
		t.Fatalf("KWS supernet classes %v", logits.Value.Shape)
	}
	adCfg := ADSupernetConfig(32, 4)
	ad, err := NewSupernet(rng, adCfg)
	if err != nil {
		t.Fatal(err)
	}
	xa := ag.Constant(tensor.Randn(rng, 1, 1, 32, 32, 1))
	alogits, _ := ad.Forward(xa, false, nil, 1)
	if alogits.Value.Shape[1] != 4 {
		t.Fatalf("AD supernet classes %v", alogits.Value.Shape)
	}
}

// probabilities returns the softmax of d's logits as plain floats.
func probabilities(d *DecisionNode) []float32 {
	sm := ag.SoftmaxVec(ag.Constant(d.Alpha.Value), 1)
	return append([]float32(nil), sm.Value.Data...)
}
