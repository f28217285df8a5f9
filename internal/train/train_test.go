package train

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"micronets/internal/arch"
	"micronets/internal/datasets"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

func TestAUCKnownValues(t *testing.T) {
	// Perfect separation.
	if got := AUC([]float64{1, 2, 3, 4}, []bool{false, false, true, true}); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Inverted.
	if got := AUC([]float64{4, 3, 2, 1}, []bool{false, false, true, true}); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	// All ties -> 0.5.
	if got := AUC([]float64{1, 1, 1, 1}, []bool{false, true, false, true}); got != 0.5 {
		t.Fatalf("tied AUC = %v", got)
	}
	// Degenerate single-class -> 0.5 by convention.
	if got := AUC([]float64{1, 2}, []bool{true, true}); got != 0.5 {
		t.Fatalf("single-class AUC = %v", got)
	}
}

func TestQuickAUCInvariantToMonotone(t *testing.T) {
	f := func(raw []float64, mask []bool) bool {
		n := len(raw)
		if len(mask) < n {
			n = len(mask)
		}
		if n < 2 {
			return true
		}
		scores := raw[:n]
		for _, s := range scores {
			if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e15 {
				return true
			}
		}
		truth := mask[:n]
		a := AUC(scores, truth)
		// Strictly monotone transform preserves AUC.
		tr := make([]float64, n)
		for i, s := range scores {
			tr[i] = 3*s + 7
		}
		b := AUC(tr, truth)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecAugmentMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(2, 10, 8, 1).Fill(1)
	got := SpecAugment(rng, x, 4, 2)
	zeros := 0
	for _, v := range got.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("SpecAugment masked nothing across a batch")
	}
	for _, v := range x.Data {
		if v != 1 {
			t.Fatal("SpecAugment must not modify its input")
		}
	}
}

func TestMixupTargetsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(4, 2, 2, 1).Fill(1)
	labels := []int{0, 1, 2, 0}
	_, targets := Mixup(rng, x, labels, 3, 0.3)
	for i := 0; i < 4; i++ {
		var s float32
		for j := 0; j < 3; j++ {
			s += targets.Data[i*3+j]
		}
		if math.Abs(float64(s)-1) > 1e-5 {
			t.Fatalf("mixup target row %d sums to %v", i, s)
		}
	}
}

func tinyVWWModel(t *testing.T, rng *rand.Rand, size int) *nn.Sequential {
	t.Helper()
	spec := &arch.Spec{
		Name: "tiny-vww", Task: "vww",
		InputH: size, InputW: size, InputC: 1, NumClasses: 2,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 2},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: 16, Stride: 2},
			{Kind: arch.GlobalPool},
			{Kind: arch.Dense, OutC: 2},
		},
	}
	m, err := arch.Build(rng, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFitLearnsVWW is the supervised-path integration test: a tiny CNN
// must beat chance comfortably on the synthetic person-detection task.
func TestFitLearnsVWW(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := datasets.SynthVWW(datasets.VWWOptions{Size: 24, PerClass: 60, Seed: 4})
	trainDS, testDS := ds.Split(rng, 0.25)
	model := tinyVWWModel(t, rng, 24)
	_, err := Fit(model, trainDS, Config{
		Steps: 150, BatchSize: 16,
		LR:   nn.CosineSchedule{Start: 0.08, End: 0.005, Steps: 150},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(model, testDS)
	if acc < 0.7 {
		t.Fatalf("VWW accuracy %.2f, want > 0.7", acc)
	}
}

// TestADProtocolBeatsChance trains the machine-ID classifier and checks
// the self-supervised anomaly score yields AUC well above 0.5.
func TestADProtocolBeatsChance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ad := datasets.SynthAD(datasets.ADOptions{
		Machines: 4, ClipsPerMachine: 3, AnomaliesPerMachine: 2, ClipSeconds: 3, Seed: 7,
	})
	cls := ad.ClassifierDataset()
	spec := &arch.Spec{
		Name: "tiny-ad", Task: "ad",
		InputH: 32, InputW: 32, InputC: 1, NumClasses: 4,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 2},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: 16, Stride: 2},
			{Kind: arch.GlobalPool},
			{Kind: arch.Dense, OutC: 4},
		},
	}
	model, err := arch.Build(rng, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(model, cls, Config{
		Steps: 50, BatchSize: 16,
		LR:         nn.CosineSchedule{Start: 0.05, End: 0.005, Steps: 50},
		MixupAlpha: 0.3,
		Seed:       8,
	}); err != nil {
		t.Fatal(err)
	}
	auc := EvalAUC(model, ad.Test)
	if auc < 0.65 {
		t.Fatalf("AD AUC %.3f, want > 0.65", auc)
	}
}

func TestFitValidatesConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	model := tinyVWWModel(t, rng, 16)
	ds := datasets.SynthVWW(datasets.VWWOptions{Size: 16, PerClass: 2, Seed: 10})
	if _, err := Fit(model, ds, Config{}); err == nil {
		t.Fatal("zero-step config must error")
	}
}
