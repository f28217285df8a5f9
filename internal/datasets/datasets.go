// Package datasets synthesizes stand-ins for the three TinyMLperf datasets
// the paper evaluates on (§4), none of which can be redistributed here:
//
//   - Google Speech Commands v2 (KWS)  -> formant-synthesized keywords
//   - Visual Wake Words (VWW)          -> rendered person/no-person scenes
//   - MIMII slide rail (AD)            -> harmonic machine-sound generator
//
// Each generator exercises the identical downstream code path as the real
// dataset (MFCC/log-mel front ends, augmentation, training, AUC scoring)
// and preserves the property the experiments rely on: class structure that
// is learnable, with difficulty scaling so larger models score higher.
// Accuracies measured on them follow the paper's trends, not its values.
package datasets

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"micronets/internal/dsp"
	"micronets/internal/tensor"
)

// Sample is one labeled example.
type Sample struct {
	X     *tensor.Tensor
	Label int
}

// Dataset is an in-memory labeled dataset.
type Dataset struct {
	Samples    []Sample
	NumClasses int
	// Shape of each sample, [h,w,c].
	H, W, C int
}

// Batch assembles samples[idxs] into a single [n,h,w,c] tensor + labels.
func (d *Dataset) Batch(idxs []int) (*tensor.Tensor, []int) {
	n := len(idxs)
	x := tensor.New(n, d.H, d.W, d.C)
	labels := make([]int, n)
	per := d.H * d.W * d.C
	for i, idx := range idxs {
		copy(x.Data[i*per:(i+1)*per], d.Samples[idx].X.Data)
		labels[i] = d.Samples[idx].Label
	}
	return x, labels
}

// RandomBatch samples a batch uniformly with replacement.
func (d *Dataset) RandomBatch(rng *rand.Rand, n int) (*tensor.Tensor, []int) {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = rng.Intn(len(d.Samples))
	}
	return d.Batch(idxs)
}

// Split partitions the dataset into train/test with the given test
// fraction, shuffled by rng.
func (d *Dataset) Split(rng *rand.Rand, testFrac float64) (train, test *Dataset) {
	perm := rng.Perm(len(d.Samples))
	nTest := int(float64(len(d.Samples)) * testFrac)
	mk := func(idxs []int) *Dataset {
		out := &Dataset{NumClasses: d.NumClasses, H: d.H, W: d.W, C: d.C}
		for _, i := range idxs {
			out.Samples = append(out.Samples, d.Samples[i])
		}
		return out
	}
	return mk(perm[nTest:]), mk(perm[:nTest])
}

// ---------------------------------------------------------------------------
// Keyword spotting (Google Speech Commands stand-in).

// KWSOptions configures the synthetic keyword generator.
type KWSOptions struct {
	// NumClasses defaults to 12: 10 keywords + "silence" + "unknown",
	// matching the TinyMLperf task definition (§4.2).
	NumClasses int
	// PerClass is the number of clips per class.
	PerClass int
	// ClipSeconds defaults to 1.0 (the task's 1-second window).
	ClipSeconds float64
	// NoiseLevel is the background-noise amplitude (augmentation, §4.2).
	NoiseLevel float64
	// JitterMS is the random timing jitter applied to each clip.
	JitterMS float64
	Seed     int64
}

func (o KWSOptions) withDefaults() KWSOptions {
	if o.NumClasses == 0 {
		o.NumClasses = 12
	}
	if o.PerClass == 0 {
		o.PerClass = 20
	}
	if o.ClipSeconds == 0 {
		o.ClipSeconds = 1
	}
	if o.NoiseLevel == 0 {
		o.NoiseLevel = 0.05
	}
	if o.JitterMS == 0 {
		o.JitterMS = 40
	}
	return o
}

// keywordSignature returns the formant frequencies (Hz) that define one
// synthetic keyword class: a two-"syllable" pattern of three formants,
// deterministic per class.
func keywordSignature(class int) [2][3]float64 {
	rng := rand.New(rand.NewSource(int64(7919 + class*104729)))
	var sig [2][3]float64
	for s := 0; s < 2; s++ {
		base := 180 + rng.Float64()*220 // fundamental 180..400 Hz
		sig[s][0] = base
		sig[s][1] = base * (2.2 + rng.Float64()*1.8)
		sig[s][2] = base * (4.5 + rng.Float64()*3.5)
	}
	return sig
}

// SynthKeyword renders one clip of the given class at 16 kHz. Class 10 is
// "silence" (noise floor only); class 11 is "unknown" (a random signature
// drawn per clip, as the unknown class mixes many words).
func SynthKeyword(rng *rand.Rand, class int, opts KWSOptions) []float64 {
	o := opts.withDefaults()
	n := int(16000 * o.ClipSeconds)
	sig := make([]float64, n)
	// Background noise (applied to every clip, per the training recipe).
	for i := range sig {
		sig[i] = rng.NormFloat64() * o.NoiseLevel
	}
	if class == 10 { // silence
		return sig
	}
	var formants [2][3]float64
	if class == 11 { // unknown: random word each time
		formants = keywordSignature(1000 + rng.Intn(100000))
	} else {
		formants = keywordSignature(class)
	}
	// Word occupies ~0.5 s centered with timing jitter.
	jitter := int(o.JitterMS / 1000 * 16000 * (rng.Float64()*2 - 1))
	start := n/4 + jitter
	if start < 0 {
		start = 0
	}
	dur := n / 2
	half := dur / 2
	// Hann envelope over each of the two syllables.
	env := make([]float64, half)
	for i := range env {
		env[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(half)))
	}
	for s := 0; s < 2; s++ {
		segStart := start + s*half
		// Per-utterance pitch variation.
		pitchScale := 1 + rng.NormFloat64()*0.03
		for i := 0; i < half; i++ {
			t := float64(segStart+i) / 16000
			var v float64
			for f, freq := range formants[s] {
				amp := 1.0 / float64(f+1)
				v += amp * math.Sin(2*math.Pi*freq*pitchScale*t)
			}
			idx := segStart + i
			if idx >= 0 && idx < n {
				sig[idx] += 0.5 * env[i] * v
			}
		}
	}
	return sig
}

// SynthKWS builds a complete synthetic keyword-spotting dataset as 49x10x1
// MFCC tensors (the paper's input representation). Every waveform is
// drawn in order from the one seeded rng; the MFCC front end, a pure
// function of its clip and most of the cost, runs on GOMAXPROCS workers,
// so the dataset is the same on any core count.
func SynthKWS(opts KWSOptions) *Dataset {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	cfg := dsp.KWSConfig()
	ds := &Dataset{NumClasses: o.NumClasses, H: 49, W: 10, C: 1,
		Samples: make([]Sample, o.NumClasses*o.PerClass)}
	type clip struct {
		i   int
		sig []float64
	}
	// One waiting clip per worker keeps them busy while holding only a
	// few raw waveforms at once.
	workers := runtime.GOMAXPROCS(0)
	clips := make(chan clip, workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range clips {
				feat := dsp.NormalizeMeanStd(dsp.Extract(cfg, c.sig))
				ds.Samples[c.i] = Sample{X: feat, Label: c.i / o.PerClass}
			}
		}()
	}
	for i := range ds.Samples {
		clips <- clip{i, SynthKeyword(rng, i/o.PerClass, o)}
	}
	close(clips)
	wg.Wait()
	return ds
}

// ---------------------------------------------------------------------------
// Visual wake words (person/no-person stand-in).

// VWWOptions configures the synthetic scene renderer.
type VWWOptions struct {
	// Size is the square grayscale resolution (the paper resizes to 50 for
	// the small MCU and 160 for the medium one, §5.2.1).
	Size     int
	PerClass int
	Seed     int64
}

func (o VWWOptions) withDefaults() VWWOptions {
	if o.Size == 0 {
		o.Size = 50
	}
	if o.PerClass == 0 {
		o.PerClass = 100
	}
	return o
}

// renderScene draws background clutter (rectangles and gradients) and, for
// person scenes, a person-like figure: a head disc over a torso ellipse
// with two legs — enough structure that detecting it requires real spatial
// features, not just first-order statistics.
func renderScene(rng *rand.Rand, size int, person bool) *tensor.Tensor {
	img := tensor.New(size, size, 1)
	// Background gradient.
	gx := rng.Float64()*2 - 1
	gy := rng.Float64()*2 - 1
	base := rng.Float64()*0.4 + 0.2
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			v := base + 0.25*(gx*float64(x)/float64(size)+gy*float64(y)/float64(size))
			img.Data[y*size+x] = float32(v)
		}
	}
	// Clutter rectangles (buildings, furniture...).
	for i := 0; i < 3+rng.Intn(4); i++ {
		x0, y0 := rng.Intn(size), rng.Intn(size)
		w, h := 2+rng.Intn(size/3), 2+rng.Intn(size/3)
		shade := float32(rng.Float64())
		for y := y0; y < y0+h && y < size; y++ {
			for x := x0; x < x0+w && x < size; x++ {
				img.Data[y*size+x] = img.Data[y*size+x]*0.3 + shade*0.7
			}
		}
	}
	if person {
		// Person occupying >=0.5% of the frame (the dataset's labeling
		// rule): scale 15-45% of frame height.
		ph := float64(size) * (0.15 + rng.Float64()*0.3)
		cx := float64(size)*0.15 + rng.Float64()*float64(size)*0.7
		cy := float64(size)*0.2 + rng.Float64()*float64(size)*0.6
		shade := float32(0.05 + rng.Float64()*0.25) // darker silhouette
		if rng.Float64() < 0.3 {
			shade = float32(0.75 + rng.Float64()*0.2) // sometimes bright
		}
		headR := ph * 0.18
		torsoW := ph * 0.3
		torsoH := ph * 0.45
		put := func(x, y int) {
			if x >= 0 && x < size && y >= 0 && y < size {
				img.Data[y*size+x] = shade
			}
		}
		// Head.
		for y := -int(headR); y <= int(headR); y++ {
			for x := -int(headR); x <= int(headR); x++ {
				if float64(x*x+y*y) <= headR*headR {
					put(int(cx)+x, int(cy)-int(torsoH/2+headR)+y)
				}
			}
		}
		// Torso ellipse.
		for y := -int(torsoH / 2); y <= int(torsoH/2); y++ {
			for x := -int(torsoW / 2); x <= int(torsoW/2); x++ {
				nx := float64(x) / (torsoW / 2)
				ny := float64(y) / (torsoH / 2)
				if nx*nx+ny*ny <= 1 {
					put(int(cx)+x, int(cy)+y)
				}
			}
		}
		// Legs.
		legLen := int(ph * 0.35)
		legW := int(math.Max(1, torsoW*0.22))
		for l := 0; l < 2; l++ {
			off := int(torsoW/4) * (2*l - 1)
			for y := 0; y < legLen; y++ {
				for x := -legW / 2; x <= legW/2; x++ {
					put(int(cx)+off+x, int(cy)+int(torsoH/2)+y)
				}
			}
		}
	}
	// Sensor noise.
	for i := range img.Data {
		img.Data[i] += float32(rng.NormFloat64() * 0.02)
	}
	return img
}

// SynthVWW builds the synthetic visual-wake-words dataset: label 1 when a
// person-like figure is present, 0 otherwise.
func SynthVWW(opts VWWOptions) *Dataset {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	ds := &Dataset{NumClasses: 2, H: o.Size, W: o.Size, C: 1}
	for class := 0; class < 2; class++ {
		for i := 0; i < o.PerClass; i++ {
			img := renderScene(rng, o.Size, class == 1)
			ds.Samples = append(ds.Samples, Sample{X: img, Label: class})
		}
	}
	return ds
}

// ---------------------------------------------------------------------------
// Anomaly detection (MIMII slide-rail stand-in).

// ADOptions configures the synthetic machine-sound generator.
type ADOptions struct {
	// Machines is the number of machine IDs (4 in MIMII slide rail).
	Machines int
	// ClipsPerMachine is the number of normal training clips per machine.
	ClipsPerMachine int
	// AnomaliesPerMachine is the number of anomalous test clips.
	AnomaliesPerMachine int
	// ClipSeconds defaults to 3 (enough for one 64-frame spectrogram
	// image; MIMII uses 10 s clips cut into overlapping images).
	ClipSeconds float64
	Seed        int64
}

func (o ADOptions) withDefaults() ADOptions {
	if o.Machines == 0 {
		o.Machines = 4
	}
	if o.ClipsPerMachine == 0 {
		o.ClipsPerMachine = 16
	}
	if o.AnomaliesPerMachine == 0 {
		o.AnomaliesPerMachine = 8
	}
	if o.ClipSeconds == 0 {
		o.ClipSeconds = 3
	}
	return o
}

// machineSignature returns the base frequency and harmonic amplitudes of
// one machine ID, deterministic per ID.
func machineSignature(id int) (base float64, harmonics []float64) {
	rng := rand.New(rand.NewSource(int64(33301 + id*7349)))
	base = 60 + rng.Float64()*180 // 60..240 Hz rotation fundamental
	harmonics = make([]float64, 8)
	for i := range harmonics {
		harmonics[i] = rng.Float64() / float64(i+1)
	}
	return base, harmonics
}

// SynthMachineClip renders one machine-sound clip. Anomalous clips inject
// the MIMII failure signatures: a detuned fundamental, a loud interloper
// harmonic, and broadband rattle bursts.
func SynthMachineClip(rng *rand.Rand, machine int, anomalous bool, opts ADOptions) []float64 {
	o := opts.withDefaults()
	n := int(16000 * o.ClipSeconds)
	base, harm := machineSignature(machine)
	if anomalous {
		base *= 1 + 0.08*(rng.Float64()+0.5) // bearing slip detune
	}
	sig := make([]float64, n)
	phase := rng.Float64() * 2 * math.Pi
	for i := 0; i < n; i++ {
		t := float64(i) / 16000
		var v float64
		for h, amp := range harm {
			v += amp * math.Sin(2*math.Pi*base*float64(h+1)*t+phase)
		}
		// Slide-rail movement: slow amplitude modulation.
		v *= 0.6 + 0.4*math.Sin(2*math.Pi*0.8*t)
		sig[i] = 0.3*v + rng.NormFloat64()*0.02
	}
	if anomalous {
		// Interloper harmonic.
		f := base * (2.5 + rng.Float64()*3)
		for i := 0; i < n; i++ {
			t := float64(i) / 16000
			sig[i] += 0.15 * math.Sin(2*math.Pi*f*t)
		}
		// Rattle bursts.
		for b := 0; b < 4+rng.Intn(4); b++ {
			at := rng.Intn(n - 800)
			for i := 0; i < 800; i++ {
				sig[at+i] += rng.NormFloat64() * 0.25 * math.Exp(-float64(i)/300)
			}
		}
	}
	return sig
}

// ADSample is one spectrogram image with machine ID and anomaly ground
// truth (the label used for the self-supervised protocol is the machine
// ID; Anomalous is only used for AUC scoring).
type ADSample struct {
	X         *tensor.Tensor // 32x32x1 downsampled log-mel image (§4.3)
	MachineID int
	Anomalous bool
}

// ADDataset holds normal training images and a mixed test set.
type ADDataset struct {
	Train []ADSample // all normal
	Test  []ADSample // normal + anomalous
}

// clipToImages converts a clip to 32x32 spectrogram images per §4.3:
// 64-mel log spectrogram, 64-frame stacks, bilinear-downsampled to 32x32.
func clipToImages(sig []float64) []*tensor.Tensor {
	cfg := dsp.ADConfig()
	spec := dsp.Extract(cfg, sig)
	imgs := dsp.StackSpectrogramImages(spec, 64, 20)
	out := make([]*tensor.Tensor, 0, len(imgs))
	for _, im := range imgs {
		big := im.Reshape(1, 64, 64, 1)
		small := tensor.BilinearResize(big, 32, 32).Reshape(32, 32, 1)
		out = append(out, dsp.NormalizeMeanStd(small))
	}
	return out
}

// SynthAD builds the synthetic anomaly-detection dataset.
func SynthAD(opts ADOptions) *ADDataset {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	ds := &ADDataset{}
	for id := 0; id < o.Machines; id++ {
		for i := 0; i < o.ClipsPerMachine; i++ {
			for _, img := range clipToImages(SynthMachineClip(rng, id, false, o)) {
				ds.Train = append(ds.Train, ADSample{X: img, MachineID: id})
			}
		}
		// Test: held-out normals plus anomalies.
		for i := 0; i < o.AnomaliesPerMachine; i++ {
			for _, img := range clipToImages(SynthMachineClip(rng, id, false, o)) {
				ds.Test = append(ds.Test, ADSample{X: img, MachineID: id})
			}
			for _, img := range clipToImages(SynthMachineClip(rng, id, true, o)) {
				ds.Test = append(ds.Test, ADSample{X: img, MachineID: id, Anomalous: true})
			}
		}
	}
	return ds
}

// ClassifierDataset converts AD training samples into a machine-ID
// classification dataset (the self-supervised reformulation of §4.3).
func (d *ADDataset) ClassifierDataset() *Dataset {
	out := &Dataset{NumClasses: 4, H: 32, W: 32, C: 1}
	for _, s := range d.Train {
		out.Samples = append(out.Samples, Sample{X: s.X, Label: s.MachineID})
	}
	return out
}
