package datasets

import (
	"math"
	"math/rand"
	"testing"
)

func TestSynthKWSShapes(t *testing.T) {
	ds := SynthKWS(KWSOptions{PerClass: 2, Seed: 1})
	if ds.NumClasses != 12 {
		t.Fatalf("classes = %d", ds.NumClasses)
	}
	if len(ds.Samples) != 24 {
		t.Fatalf("samples = %d", len(ds.Samples))
	}
	for _, s := range ds.Samples {
		if s.X.Shape[0] != 49 || s.X.Shape[1] != 10 || s.X.Shape[2] != 1 {
			t.Fatalf("KWS sample shape %v", s.X.Shape)
		}
	}
}

func TestKeywordClassesDistinct(t *testing.T) {
	// Same-class clips must be closer (on average) than cross-class clips
	// in MFCC space, otherwise nothing can learn the task.
	opts := KWSOptions{PerClass: 3, Seed: 2}
	ds := SynthKWS(opts)
	byClass := map[int][][]float32{}
	for _, s := range ds.Samples {
		byClass[s.Label] = append(byClass[s.Label], s.X.Data)
	}
	dist := func(a, b []float32) float64 {
		var d float64
		for i := range a {
			dd := float64(a[i] - b[i])
			d += dd * dd
		}
		return math.Sqrt(d)
	}
	within := dist(byClass[0][0], byClass[0][1])
	across := dist(byClass[0][0], byClass[3][0])
	if within >= across {
		t.Fatalf("class 0 internal distance %.2f >= cross-class %.2f", within, across)
	}
}

func TestSilenceClassIsQuiet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sil := SynthKeyword(rng, 10, KWSOptions{})
	kw := SynthKeyword(rng, 0, KWSOptions{})
	var eS, eK float64
	for i := range sil {
		eS += sil[i] * sil[i]
		eK += kw[i] * kw[i]
	}
	if eS >= eK/2 {
		t.Fatalf("silence energy %.2f not well below keyword %.2f", eS, eK)
	}
}

func TestSynthVWWShapesAndBalance(t *testing.T) {
	ds := SynthVWW(VWWOptions{Size: 32, PerClass: 5, Seed: 4})
	if len(ds.Samples) != 10 || ds.NumClasses != 2 {
		t.Fatalf("samples %d classes %d", len(ds.Samples), ds.NumClasses)
	}
	count := map[int]int{}
	for _, s := range ds.Samples {
		count[s.Label]++
		if s.X.Shape[0] != 32 || s.X.Shape[1] != 32 {
			t.Fatalf("VWW sample shape %v", s.X.Shape)
		}
	}
	if count[0] != 5 || count[1] != 5 {
		t.Fatalf("class balance %v", count)
	}
}

func TestSynthADStructure(t *testing.T) {
	ds := SynthAD(ADOptions{Machines: 2, ClipsPerMachine: 1, AnomaliesPerMachine: 1, ClipSeconds: 3, Seed: 5})
	if len(ds.Train) == 0 || len(ds.Test) == 0 {
		t.Fatal("empty AD dataset")
	}
	for _, s := range ds.Train {
		if s.Anomalous {
			t.Fatal("training split must contain only normal samples (§4.3)")
		}
		if s.X.Shape[0] != 32 || s.X.Shape[1] != 32 {
			t.Fatalf("AD image shape %v", s.X.Shape)
		}
	}
	hasAnom, hasNorm := false, false
	for _, s := range ds.Test {
		if s.Anomalous {
			hasAnom = true
		} else {
			hasNorm = true
		}
	}
	if !hasAnom || !hasNorm {
		t.Fatal("test split must mix normal and anomalous")
	}
	cls := ds.ClassifierDataset()
	if cls.NumClasses != 4 {
		t.Fatalf("classifier dataset classes = %d", cls.NumClasses)
	}
}

func TestMachineSignaturesDiffer(t *testing.T) {
	b0, _ := machineSignature(0)
	b1, _ := machineSignature(1)
	if b0 == b1 {
		t.Fatal("machine IDs must have distinct fundamentals")
	}
}

func TestAnomalousClipsDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	opts := ADOptions{ClipSeconds: 1}
	norm := SynthMachineClip(rng, 0, false, opts)
	anom := SynthMachineClip(rng, 0, true, opts)
	var dn, da float64
	for i := range norm {
		dn += norm[i] * norm[i]
		da += anom[i] * anom[i]
	}
	if da <= dn {
		t.Fatal("anomalous clips must carry extra energy (rattle + interloper)")
	}
}

func TestBatchAndSplit(t *testing.T) {
	ds := SynthVWW(VWWOptions{Size: 16, PerClass: 10, Seed: 7})
	rng := rand.New(rand.NewSource(8))
	x, labels := ds.RandomBatch(rng, 4)
	if x.Shape[0] != 4 || len(labels) != 4 {
		t.Fatalf("batch shapes %v %d", x.Shape, len(labels))
	}
	train, test := ds.Split(rng, 0.25)
	if len(train.Samples) != 15 || len(test.Samples) != 5 {
		t.Fatalf("split %d/%d", len(train.Samples), len(test.Samples))
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := SynthVWW(VWWOptions{Size: 16, PerClass: 2, Seed: 42})
	b := SynthVWW(VWWOptions{Size: 16, PerClass: 2, Seed: 42})
	for i := range a.Samples {
		for j := range a.Samples[i].X.Data {
			if a.Samples[i].X.Data[j] != b.Samples[i].X.Data[j] {
				t.Fatal("same seed must reproduce the dataset")
			}
		}
	}
}

// BenchmarkSynthKWS builds the dataset the nas_sweep DNAS warm start
// trains on (PerClass 8, 96 clips): waveform synthesis on one goroutine,
// MFCC extraction on GOMAXPROCS workers.
func BenchmarkSynthKWS(b *testing.B) {
	for b.Loop() {
		SynthKWS(KWSOptions{PerClass: 8, Seed: 1})
	}
}
