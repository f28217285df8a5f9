package search

import (
	"fmt"
	"math/rand"
	"sort"

	"micronets/internal/arch"
	ag "micronets/internal/autograd"
	"micronets/internal/datasets"
	"micronets/internal/graph"
	"micronets/internal/nn"
	"micronets/internal/tensor"
	"micronets/internal/tflm"
)

// Every task recipe trains minibatches of batchSize under SGD with
// momentum 0.9 and weight decay weightDecay (the paper's search-phase
// value), and Export calibrates the int8 activation ranges on calibBatch
// train-split samples.
const (
	batchSize   = 16
	weightDecay = 0.001
	calibBatch  = 32
)

// recipe is one task's finalist training: its small-budget datasets and
// the paper's task recipe (§5.2) with the step budget as the only free
// knob. The datasets are big enough that a better architecture scores
// higher, small enough that re-ranking K finalists costs seconds, and
// keyed by the run seed so every finalist of one run competes on
// identical data.
type recipe struct {
	// data builds the train split and what the metric scores: a held-out
	// split for top-1 accuracy, or the mixed normal/anomalous test set of
	// the §4.3 AUC protocol.
	data func(seed int64) (train, eval *datasets.Dataset, adTest []datasets.ADSample)
	// lrStart and lrEnd are the cosine learning-rate endpoints.
	lrStart, lrEnd float32
	// mixupAlpha > 0 blends batch pairs (§5.2.3).
	mixupAlpha float32
	// specAugment masks time and frequency bands of [n,h,w,1] inputs
	// (§5.2.2).
	specAugment bool
}

// recipes is the finalist recipe of each task.
var recipes = map[string]recipe{
	// §5.2.2: SpecAugment; 16 clips per class, a quarter held out.
	"kws": {
		data: func(seed int64) (*datasets.Dataset, *datasets.Dataset, []datasets.ADSample) {
			tr, ev := datasets.SynthKWS(datasets.KWSOptions{PerClass: 16, Seed: seed}).Split(rand.New(rand.NewSource(seed)), 0.25)
			return tr, ev, nil
		},
		lrStart: 0.08, lrEnd: 0.008, specAugment: true,
	},
	// §5.2.1 minus distillation (no teacher inside a search trial); 40
	// scenes per class at 50x50, a quarter held out.
	"vww": {
		data: func(seed int64) (*datasets.Dataset, *datasets.Dataset, []datasets.ADSample) {
			tr, ev := datasets.SynthVWW(datasets.VWWOptions{Size: 50, PerClass: 40, Seed: seed}).Split(rand.New(rand.NewSource(seed)), 0.25)
			return tr, ev, nil
		},
		lrStart: 0.05, lrEnd: 0.005,
	},
	// §5.2.3: mixup with alpha 0.3; 8 normal clips and 3 anomalous test
	// clips per machine, trained as the machine-ID classifier of §4.3.
	"ad": {
		data: func(seed int64) (*datasets.Dataset, *datasets.Dataset, []datasets.ADSample) {
			ad := datasets.SynthAD(datasets.ADOptions{ClipsPerMachine: 8, AnomaliesPerMachine: 3, Seed: seed})
			return ad.ClassifierDataset(), nil, ad.Test
		},
		lrStart: 0.05, lrEnd: 0.005, mixupAlpha: 0.3,
	},
}

// Trainer is the module's one build → fit → score → export path. It
// holds the task's recipe and datasets, built once per run. Train builds
// a spec into an nn.Sequential and fits it under the recipe; Export
// lowers the trained model to int8 and scores it through the runtime
// with the same scorer. The search's finalist stage calls Train, so the
// frontier's top candidates are re-ranked by measured task accuracy
// instead of the capacity proxy; cmd/train is a one-candidate run of
// Train and Export. Every finalist of one run competes on identical data
// (datasets are keyed by the run seed); only model initialization and
// batch order vary with the per-trial seed.
type Trainer struct {
	recipe
	seed    int64
	trainDS *datasets.Dataset
	// evalDS is the held-out split scored by top-1 accuracy (KWS/VWW).
	evalDS *datasets.Dataset
	// adTest is the mixed normal/anomalous test set scored by the §4.3
	// AUC protocol (AD).
	adTest []datasets.ADSample
}

// NewTrainer builds a task's datasets. The split rng is seeded by the
// run seed, so a resumed run evaluates finalists on exactly the data the
// interrupted run used.
func NewTrainer(task string, seed int64) (*Trainer, error) {
	r, ok := recipes[task]
	if !ok {
		return nil, fmt.Errorf("search: no finalist trainer for task %q (have kws, vww, ad)", task)
	}
	t := &Trainer{recipe: r, seed: seed}
	t.trainDS, t.evalDS, t.adTest = r.data(seed)
	return t, nil
}

// Train builds the spec into a trainable model (with 8-bit
// quantization-aware training when qat is set), runs the task's recipe
// for steps, and returns the task metric in percent — top-1 accuracy on
// the held-out split for KWS/VWW, AUC on the anomaly test set for AD —
// with the trained model. The metric is the TrainedAccuracy recorded
// alongside the proxy. Safe for concurrent use: the shared datasets are
// only read, and all randomness flows from the caller's seed.
func (t *Trainer) Train(spec *arch.Spec, steps int, seed int64, qat bool) (float64, *nn.Sequential, error) {
	if steps <= 0 {
		return 0, nil, fmt.Errorf("search: training needs steps > 0, got %d", steps)
	}
	model, err := arch.Build(rand.New(rand.NewSource(seed)), spec, qat)
	if err != nil {
		return 0, nil, fmt.Errorf("search: build %s: %w", spec.Name, err)
	}
	fit(model, t.trainDS, t.recipe, steps, seed)
	score, err := t.score(func(x *tensor.Tensor) ([]float32, error) {
		logits := model.Forward(ag.Constant(x.Reshape(1, x.Shape[0], x.Shape[1], x.Shape[2])), false)
		if t.adTest != nil {
			return ag.SoftmaxRows(logits.Value).Data, nil
		}
		return logits.Value.Data, nil
	})
	return score, model, err
}

// Export lowers a model Train returned to the int8 runtime format —
// calibrated on a fixed train-split batch drawn with the run-seeded rng,
// with a softmax appended — and scores the runtime's outputs with Train's
// scorer, so the pair reads as the float → int8 gap on the deployed
// kernels.
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
	score, err := t.score(func(x *tensor.Tensor) ([]float32, error) {
		if err := ip.SetInputFloat(x); err != nil {
			return nil, err
		}
		if err := ip.Invoke(); err != nil {
			return nil, err
		}
		return ip.OutputFloat(), nil
	})
	if err != nil {
		return nil, 0, err
	}
	return gm, score, nil
}

// score is the task metric in percent, given one input's class scores:
// for KWS/VWW the top-1 accuracy on the held-out split (the first
// highest score wins ties), for AD the §4.3 AUC of minus the probability
// scores gives each test sample's own machine ID.
func (t *Trainer) score(scores func(x *tensor.Tensor) ([]float32, error)) (float64, error) {
	if t.adTest != nil {
		anomaly := make([]float64, len(t.adTest))
		truth := make([]bool, len(t.adTest))
		for i, s := range t.adTest {
			p, err := scores(s.X)
			if err != nil {
				return 0, err
			}
			anomaly[i] = -float64(p[s.MachineID])
			truth[i] = s.Anomalous
		}
		return 100 * auc(anomaly, truth), nil
	}
	if len(t.evalDS.Samples) == 0 {
		return 0, nil
	}
	correct := 0
	for _, s := range t.evalDS.Samples {
		row, err := scores(s.X)
		if err != nil {
			return 0, err
		}
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == s.Label {
			correct++
		}
	}
	return 100 * (float64(correct) / float64(len(t.evalDS.Samples))), nil
}

// fit trains model on ds for steps under r, drawing batches, masks and
// mixing partners from one rng seeded by seed.
func fit(model *nn.Sequential, ds *datasets.Dataset, r recipe, steps int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	opt := nn.NewSGD(weightDecay)
	lr := nn.CosineSchedule{Start: r.lrStart, End: r.lrEnd, Steps: steps}
	params := model.Params()
	// Every step builds the same graph: its tensors come from one tape,
	// released after the optimizer step.
	tape := ag.NewTape()
	for step := 0; step < steps; step++ {
		x, labels := ds.RandomBatch(rng, batchSize)
		if r.specAugment {
			x = specAugment(rng, x, 8, 2)
		}
		var loss *ag.Var
		if r.mixupAlpha > 0 {
			x2, targets := mixup(rng, x, labels, ds.NumClasses, r.mixupAlpha)
			logits := model.Forward(tape.Constant(x2), true)
			loss = ag.SoftCrossEntropy(logits, targets)
		} else {
			logits := model.Forward(tape.Constant(x), true)
			loss = ag.CrossEntropy(logits, labels)
		}
		ag.Backward(loss)
		nn.ClipGradNorm(params, 5)
		opt.Step(params, lr.LR(step))
		tape.Release()
	}
}

// specAugment applies time and frequency masking to a batch of [n,h,w,1]
// spectrogram features (Park et al. 2019, used by the KWS recipe).
func specAugment(rng *rand.Rand, x *tensor.Tensor, maxTime, maxFreq int) *tensor.Tensor {
	n, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := x.Clone()
	for b := 0; b < n; b++ {
		// Time mask (rows).
		tLen := rng.Intn(maxTime + 1)
		if tLen > 0 && h > tLen {
			t0 := rng.Intn(h - tLen)
			for t := t0; t < t0+tLen; t++ {
				for c := 0; c < w; c++ {
					out.Data[(b*h+t)*w+c] = 0
				}
			}
		}
		// Frequency mask (columns).
		fLen := rng.Intn(maxFreq + 1)
		if fLen > 0 && w > fLen {
			f0 := rng.Intn(w - fLen)
			for t := 0; t < h; t++ {
				for c := f0; c < f0+fLen; c++ {
					out.Data[(b*h+t)*w+c] = 0
				}
			}
		}
	}
	return out
}

// mixup blends random pairs within the batch (Zhang et al. 2017, used by
// the AD recipe with alpha 0.3) returning mixed inputs and soft targets.
func mixup(rng *rand.Rand, x *tensor.Tensor, labels []int, numClasses int, alpha float32) (*tensor.Tensor, *tensor.Tensor) {
	n := x.Shape[0]
	per := x.Len() / n
	out := x.Clone()
	targets := tensor.New(n, numClasses)
	for i := 0; i < n; i++ {
		j := rng.Intn(n)
		// Beta(alpha, alpha) via the two-gamma construction would need a
		// gamma sampler; a symmetric triangular approximation with the
		// same support/mean keeps mixing strength comparable.
		lam := 1 - alpha*rng.Float32()
		for k := 0; k < per; k++ {
			out.Data[i*per+k] = lam*x.Data[i*per+k] + (1-lam)*x.Data[j*per+k]
		}
		targets.Data[i*numClasses+labels[i]] += lam
		targets.Data[i*numClasses+labels[j]] += 1 - lam
	}
	return out, targets
}

// auc computes the area under the ROC curve given anomaly scores (higher
// = more anomalous) and ground truth.
func auc(scores []float64, anomalous []bool) float64 {
	if len(scores) != len(anomalous) {
		panic("search: auc length mismatch")
	}
	type pair struct {
		s float64
		a bool
	}
	ps := make([]pair, len(scores))
	for i := range scores {
		ps[i] = pair{scores[i], anomalous[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].s < ps[j].s })
	// Rank-sum (Mann-Whitney U) with tie handling by average rank.
	var nPos, nNeg float64
	var rankSum float64
	i := 0
	rank := 1.0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		avgRank := (rank + rank + float64(j-i) - 1) / 2
		for k := i; k < j; k++ {
			if ps[k].a {
				rankSum += avgRank
				nPos++
			} else {
				nNeg++
			}
		}
		rank += float64(j - i)
		i = j
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	u := rankSum - nPos*(nPos+1)/2
	return u / (nPos * nNeg)
}
