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
// MFCCs (NumCoeffs > 0) or log-mel energies (NumCoeffs == 0).
func Extract(cfg FeatureConfig, signal []float64) *tensor.Tensor {
	fftSize := NextPow2(cfg.FrameLen)
	window := HannWindow(cfg.FrameLen)
	fb := MelFilterbank(cfg.NumMel, fftSize, cfg.SampleRate, cfg.LowHz, cfg.HighHz)
	frames := Frame(signal, cfg.FrameLen, cfg.Hop)

	feat := cfg.NumCoeffs
	if feat == 0 {
		feat = cfg.NumMel
	}
	out := tensor.New(len(frames), feat, 1)
	buf := make([]float64, cfg.FrameLen)
	logmel := make([]float64, cfg.NumMel)
	for fi, frame := range frames {
		for i := range frame {
			buf[i] = frame[i] * window[i]
		}
		ps := PowerSpectrum(buf, fftSize)
		for m := 0; m < cfg.NumMel; m++ {
			var s float64
			for b, w := range fb[m] {
				if w != 0 {
					s += w * ps[b]
				}
			}
			logmel[m] = math.Log(s + 1e-6)
		}
		var row []float64
		if cfg.NumCoeffs > 0 {
			row = DCT2(logmel, cfg.NumCoeffs)
		} else {
			row = logmel
		}
		for j, v := range row {
			out.Data[fi*feat+j] = float32(v)
		}
	}
	return out
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
