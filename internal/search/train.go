package search

import (
	"fmt"
	"math/rand"

	"micronets/internal/arch"
	"micronets/internal/datasets"
	"micronets/internal/graph"
	"micronets/internal/nn"
	"micronets/internal/tensor"
	"micronets/internal/tflm"
	"micronets/internal/train"
)

// calibBatch is the number of train-split samples Export calibrates the
// int8 activation ranges on.
const calibBatch = 32

// Trainer is the module's one build → fit → score → export path. It
// holds the task's deterministic small-budget datasets, built once per
// run. Train builds a spec into an nn.Sequential and fits it under the
// task's quick recipe; Export lowers the trained model to int8 and scores
// it through the runtime. The search's finalist stage calls Train, so the
// frontier's top candidates are re-ranked by measured task accuracy
// instead of the capacity proxy; cmd/train is a one-candidate run of
// Train and Export. Every finalist of one run competes on identical data
// (datasets are keyed by the run seed); only model initialization and
// batch order vary with the per-trial seed.
type Trainer struct {
	task    string
	seed    int64
	trainDS *datasets.Dataset
	// evalDS is the held-out split scored by top-1 accuracy (KWS/VWW).
	evalDS *datasets.Dataset
	// adTest is the mixed normal/anomalous test set scored by the §4.3
	// AUC protocol (AD).
	adTest []datasets.ADSample
}

// NewTrainer builds the quick datasets for a task. The split rng is
// seeded by the run seed, so a resumed run evaluates finalists on exactly
// the data the interrupted run used.
func NewTrainer(task string, seed int64) (*Trainer, error) {
	t := &Trainer{task: task, seed: seed}
	switch task {
	case "kws":
		t.trainDS, t.evalDS = datasets.QuickKWS(seed).Split(rand.New(rand.NewSource(seed)), 0.25)
	case "vww":
		t.trainDS, t.evalDS = datasets.QuickVWW(seed).Split(rand.New(rand.NewSource(seed)), 0.25)
	case "ad":
		ad := datasets.QuickAD(seed)
		t.trainDS = ad.ClassifierDataset()
		t.adTest = ad.Test
	default:
		return nil, fmt.Errorf("search: no finalist trainer for task %q (have kws, vww, ad)", task)
	}
	return t, nil
}

// Train builds the spec into a trainable model (with 8-bit
// quantization-aware training when qat is set), runs the task's quick
// recipe for steps, and returns the task metric in percent — top-1
// accuracy on the held-out split for KWS/VWW, AUC on the anomaly test set
// for AD — with the trained model. The metric is the TrainedAccuracy
// recorded alongside the proxy. Safe for concurrent use: the shared
// datasets are only read, and all randomness flows from the caller's
// seed.
func (t *Trainer) Train(spec *arch.Spec, steps int, seed int64, qat bool) (float64, *nn.Sequential, error) {
	cfg, err := train.QuickConfig(t.task, steps, seed)
	if err != nil {
		return 0, nil, err
	}
	model, err := arch.Build(rand.New(rand.NewSource(seed)), spec, qat)
	if err != nil {
		return 0, nil, fmt.Errorf("search: build %s: %w", spec.Name, err)
	}
	if _, err := train.Fit(model, t.trainDS, cfg); err != nil {
		return 0, nil, fmt.Errorf("search: train %s: %w", spec.Name, err)
	}
	if t.task == "ad" {
		return 100 * train.EvalAUC(model, t.adTest), model, nil
	}
	return 100 * train.Accuracy(model, t.evalDS), model, nil
}

// Export lowers a model Train returned to the int8 runtime format —
// calibrated on a fixed train-split batch drawn with the run-seeded rng,
// with a softmax appended — and scores it through the runtime on Train's
// eval data with Train's metric, so the pair reads as the float → int8
// gap on the deployed kernels: top-1 accuracy for KWS/VWW, and for AD the
// AUC of minus the int8 softmax probability of each test sample's own
// machine ID (the §4.3 protocol train.AnomalyScores runs in float).
func (t *Trainer) Export(spec *arch.Spec, model *nn.Sequential) (*graph.Model, float64, error) {
	calib, _ := t.trainDS.RandomBatch(rand.New(rand.NewSource(t.seed)), calibBatch)
	gm, err := graph.Export(spec, model, calib, graph.LowerOptions{AppendSoftmax: true})
	if err != nil {
		return nil, 0, fmt.Errorf("search: export %s: %w", spec.Name, err)
	}
	ip, err := tflm.NewInterpreter(gm, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("search: export %s: %w", spec.Name, err)
	}
	if t.task == "ad" {
		scores := make([]float64, len(t.adTest))
		truth := make([]bool, len(t.adTest))
		for i, s := range t.adTest {
			if err := ip.SetInputFloat(s.X); err != nil {
				return nil, 0, err
			}
			if err := ip.Invoke(); err != nil {
				return nil, 0, err
			}
			scores[i] = -float64(ip.OutputFloat()[s.MachineID])
			truth[i] = s.Anomalous
		}
		return gm, 100 * train.AUC(scores, truth), nil
	}
	xs := make([]*tensor.Tensor, len(t.evalDS.Samples))
	for i, s := range t.evalDS.Samples {
		xs[i] = s.X
	}
	preds, _, err := ip.ClassifyBatch(xs)
	if err != nil {
		return nil, 0, err
	}
	correct := 0
	for i, s := range t.evalDS.Samples {
		if preds[i] == s.Label {
			correct++
		}
	}
	return gm, 100 * float64(correct) / float64(len(xs)), nil
}
