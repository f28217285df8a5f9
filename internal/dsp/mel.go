package dsp

import (
	"math"

	"micronets/internal/tensor"
)

// HzToMel converts frequency to the HTK mel scale.
func HzToMel(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// MelToHz converts mel back to frequency.
func MelToHz(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// MelFilterbank builds numFilters triangular filters over fftBins one-sided
// spectrum bins for the given sample rate and frequency range. The result
// is [numFilters][fftBins] weights.
func MelFilterbank(numFilters, fftSize, sampleRate int, lowHz, highHz float64) [][]float64 {
	bins := fftSize/2 + 1
	lowMel := HzToMel(lowHz)
	highMel := HzToMel(highHz)
	// numFilters+2 equally spaced mel points.
	points := make([]float64, numFilters+2)
	for i := range points {
		mel := lowMel + (highMel-lowMel)*float64(i)/float64(numFilters+1)
		points[i] = MelToHz(mel) * float64(fftSize) / float64(sampleRate)
	}
	fb := make([][]float64, numFilters)
	for f := 0; f < numFilters; f++ {
		fb[f] = make([]float64, bins)
		left, center, right := points[f], points[f+1], points[f+2]
		for b := 0; b < bins; b++ {
			x := float64(b)
			switch {
			case x > left && x < center:
				fb[f][b] = (x - left) / (center - left)
			case x >= center && x < right:
				fb[f][b] = (right - x) / (right - center)
			}
		}
	}
	return fb
}

// FeatureConfig describes an audio-to-features pipeline.
type FeatureConfig struct {
	SampleRate int
	FrameLen   int // samples per frame
	Hop        int // samples between frames
	NumMel     int
	NumCoeffs  int // MFCC coefficients kept; 0 means log-mel output (no DCT)
	LowHz      float64
	HighHz     float64
}

// KWSConfig reproduces the paper's keyword-spotting front end: 40 ms
// frames, 20 ms stride, 40 mel filters, 10 MFCCs — a 1 s clip becomes a
// 49x10x1 input (§4.2).
func KWSConfig() FeatureConfig {
	return FeatureConfig{
		SampleRate: 16000,
		FrameLen:   640, // 40 ms
		Hop:        320, // 20 ms
		NumMel:     40,
		NumCoeffs:  10,
		LowHz:      20,
		HighHz:     4000,
	}
}

// ADConfig reproduces the anomaly-detection front end: 64 ms frames, 32 ms
// hop, 64 log-mel bins (§4.3).
func ADConfig() FeatureConfig {
	return FeatureConfig{
		SampleRate: 16000,
		FrameLen:   1024, // 64 ms
		Hop:        512,  // 32 ms
		NumMel:     64,
		NumCoeffs:  0, // log-mel, no DCT
		LowHz:      20,
		HighHz:     8000,
	}
}

// Extract converts a mono signal into a [frames, features, 1] tensor of
// MFCCs (NumCoeffs > 0) or log-mel energies (NumCoeffs == 0). Frames of
// FrameLen samples start every Hop samples; a tail that does not fill a
// whole frame is dropped. Each frame is Hann-windowed, zero-padded to a
// power of two, transformed to a one-sided power spectrum, pooled by the
// mel filterbank, logged and (for MFCCs) reduced by an orthonormal DCT-II.
// The window, the FFT twiddles, the filterbank and the DCT cosines are
// tables built once per call, and every frame reuses one FFT buffer.
func Extract(cfg FeatureConfig, signal []float64) *tensor.Tensor {
	if cfg.FrameLen <= 0 || cfg.Hop <= 0 {
		panic("dsp: Extract needs positive FrameLen and Hop")
	}
	fftSize := NextPow2(cfg.FrameLen)
	window := make([]float64, cfg.FrameLen) // periodic Hann
	for i := range window {
		window[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(cfg.FrameLen)))
	}
	tw := newTwiddles(fftSize)
	filters := melFilters(MelFilterbank(cfg.NumMel, fftSize, cfg.SampleRate, cfg.LowHz, cfg.HighHz))
	dct := newDCT(cfg.NumMel, cfg.NumCoeffs)

	frames := 0
	if len(signal) >= cfg.FrameLen {
		frames = (len(signal)-cfg.FrameLen)/cfg.Hop + 1
	}
	feat := cfg.NumCoeffs
	if feat == 0 {
		feat = cfg.NumMel
	}
	out := tensor.New(frames, feat, 1)
	re := make([]float64, fftSize)
	im := make([]float64, fftSize)
	ps := make([]float64, fftSize/2+1)
	logmel := make([]float64, cfg.NumMel)
	for fi := 0; fi < frames; fi++ {
		frame := signal[fi*cfg.Hop : fi*cfg.Hop+cfg.FrameLen]
		for i, w := range window {
			re[i] = frame[i] * w
		}
		clear(re[cfg.FrameLen:])
		clear(im)
		fft(re, im, tw)
		for i := range ps {
			ps[i] = re[i]*re[i] + im[i]*im[i]
		}
		for m, f := range filters {
			var s float64
			for b, w := range f.w {
				if w != 0 {
					s += w * ps[f.lo+b]
				}
			}
			logmel[m] = math.Log(s + 1e-6)
		}
		dst := out.Data[fi*feat : (fi+1)*feat]
		if dct == nil {
			for j, v := range logmel {
				dst[j] = float32(v)
			}
			continue
		}
		for k := range dst {
			var s float64
			for i, c := range dct.cos[k*cfg.NumMel : (k+1)*cfg.NumMel] {
				s += logmel[i] * c
			}
			dst[k] = float32(s * dct.scale[k])
		}
	}
	return out
}

// melFilter is one filterbank row cut to its nonzero bins: w holds the
// weights of bins lo, lo+1, ….
type melFilter struct {
	lo int
	w  []float64
}

// melFilters cuts each filterbank row to the span from its first to its
// last nonzero weight, which is all a frame's pooling reads.
func melFilters(fb [][]float64) []melFilter {
	out := make([]melFilter, len(fb))
	for m, row := range fb {
		lo, hi := 0, 0
		for b, w := range row {
			if w != 0 {
				if hi == 0 {
					lo = b
				}
				hi = b + 1
			}
		}
		out[m] = melFilter{lo: lo, w: row[lo:hi]}
	}
	return out
}

// dctTable holds the orthonormal DCT-II of an n-point input, first
// numCoeffs coefficients: cos[k*n+i] multiplies input i into
// coefficient k, which scale[k] then normalises.
type dctTable struct {
	cos, scale []float64
}

// newDCT builds the table, or returns nil when numCoeffs is 0 (log-mel
// output, no DCT).
func newDCT(n, numCoeffs int) *dctTable {
	if numCoeffs == 0 {
		return nil
	}
	d := &dctTable{cos: make([]float64, numCoeffs*n), scale: make([]float64, numCoeffs)}
	for k := 0; k < numCoeffs; k++ {
		for i := 0; i < n; i++ {
			d.cos[k*n+i] = math.Cos(math.Pi * float64(k) * (float64(i) + 0.5) / float64(n))
		}
		d.scale[k] = math.Sqrt(2 / float64(n))
		if k == 0 {
			d.scale[k] = math.Sqrt(1 / float64(n))
		}
	}
	return d
}

// StackSpectrogramImages stacks consecutive spectrogram frames into square
// images of size [size, size], advancing by stride frames per image —
// the paper's "stack 64 frames together to get 64 by 64 images and the
// next image has an overlap of 44 frames" (stride 20).
func StackSpectrogramImages(spec *tensor.Tensor, size, stride int) []*tensor.Tensor {
	frames := spec.Shape[0]
	feat := spec.Shape[1]
	var images []*tensor.Tensor
	for start := 0; start+size <= frames; start += stride {
		img := tensor.New(size, feat, 1)
		copy(img.Data, spec.Data[start*feat:(start+size)*feat])
		images = append(images, img)
	}
	return images
}

// NormalizeMeanStd standardizes a tensor in place to zero mean, unit
// variance (per-tensor), returning it for chaining.
func NormalizeMeanStd(t *tensor.Tensor) *tensor.Tensor {
	m := float64(tensor.Mean(t))
	var ss float64
	for _, v := range t.Data {
		d := float64(v) - m
		ss += d * d
	}
	std := math.Sqrt(ss/float64(t.Len()) + 1e-8)
	for i, v := range t.Data {
		t.Data[i] = float32((float64(v) - m) / std)
	}
	return t
}
