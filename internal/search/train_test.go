package search

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"micronets/internal/arch"
	"micronets/internal/datasets"
	"micronets/internal/tensor"
)

func TestAUCKnownValues(t *testing.T) {
	// Perfect separation.
	if got := auc([]float64{1, 2, 3, 4}, []bool{false, false, true, true}); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Inverted.
	if got := auc([]float64{4, 3, 2, 1}, []bool{false, false, true, true}); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	// All ties -> 0.5.
	if got := auc([]float64{1, 1, 1, 1}, []bool{false, true, false, true}); got != 0.5 {
		t.Fatalf("tied AUC = %v", got)
	}
	// Degenerate single-class -> 0.5 by convention.
	if got := auc([]float64{1, 2}, []bool{true, true}); got != 0.5 {
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
		a := auc(scores, truth)
		// Strictly monotone transform preserves AUC.
		tr := make([]float64, n)
		for i, s := range scores {
			tr[i] = 3*s + 7
		}
		b := auc(tr, truth)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecAugmentMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(2, 10, 8, 1).Fill(1)
	got := specAugment(rng, x, 4, 2)
	zeros := 0
	for _, v := range got.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("specAugment masked nothing across a batch")
	}
	for _, v := range x.Data {
		if v != 1 {
			t.Fatal("specAugment must not modify its input")
		}
	}
}

func TestMixupTargetsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(4, 2, 2, 1).Fill(1)
	labels := []int{0, 1, 2, 0}
	_, targets := mixup(rng, x, labels, 3, 0.3)
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

// tinySpec is a two-block CNN for size×size single-channel inputs.
func tinySpec(task string, size, classes int) *arch.Spec {
	return &arch.Spec{
		Name: "tiny-" + task, Task: task,
		InputH: size, InputW: size, InputC: 1, NumClasses: classes,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 2},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: 16, Stride: 2},
			{Kind: arch.GlobalPool},
			{Kind: arch.Dense, OutC: classes},
		},
	}
}

// TestFitLearnsVWW is the supervised-path integration test: a tiny CNN
// must beat chance comfortably on the synthetic person-detection task.
func TestFitLearnsVWW(t *testing.T) {
	ds := datasets.SynthVWW(datasets.VWWOptions{Size: 24, PerClass: 60, Seed: 4})
	trainDS, testDS := ds.Split(rand.New(rand.NewSource(3)), 0.25)
	tr := &Trainer{recipe: recipe{lrStart: 0.08, lrEnd: 0.005}, trainDS: trainDS, evalDS: testDS}
	acc, _, err := tr.Train(tinySpec("vww", 24, 2), 150, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("VWW accuracy %.1f%%", acc)
	if acc < 70 {
		t.Fatalf("VWW accuracy %.1f%%, want > 70%%", acc)
	}
}

// TestADProtocolBeatsChance trains the machine-ID classifier under mixup
// and checks the self-supervised anomaly score yields AUC well above 0.5.
func TestADProtocolBeatsChance(t *testing.T) {
	ad := datasets.SynthAD(datasets.ADOptions{
		Machines: 4, ClipsPerMachine: 3, AnomaliesPerMachine: 2, ClipSeconds: 3, Seed: 7,
	})
	tr := &Trainer{
		recipe:  recipe{lrStart: 0.05, lrEnd: 0.005, mixupAlpha: 0.3},
		trainDS: ad.ClassifierDataset(), adTest: ad.Test,
	}
	got, _, err := tr.Train(tinySpec("ad", 32, 4), 50, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("AD AUC %.1f%%", got)
	if got < 65 {
		t.Fatalf("AD AUC %.1f%%, want > 65%%", got)
	}
}

func TestTrainNeedsPositiveSteps(t *testing.T) {
	ds := datasets.SynthVWW(datasets.VWWOptions{Size: 16, PerClass: 2, Seed: 10})
	tr := &Trainer{recipe: recipes["vww"], trainDS: ds, evalDS: ds}
	for _, steps := range []int{0, -1} {
		if _, _, err := tr.Train(tinySpec("vww", 16, 2), steps, 9, false); err == nil {
			t.Fatalf("Train with %d steps must error", steps)
		}
	}
}
