package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"micronets/internal/tensor"
)

// The per-frame pipeline below is the oracle for Extract's tables: the
// same steps, one frame at a time, each allocating its own buffers.

// FFT transforms (re, im) in place, building its own twiddle table.
func FFT(re, im []float64) {
	if len(re) != len(im) || len(re)&(len(re)-1) != 0 || len(re) == 0 {
		panic(fmt.Sprintf("dsp: FFT needs equal power-of-two lengths, got %d and %d", len(re), len(im)))
	}
	fft(re, im, newTwiddles(len(re)))
}

// PowerSpectrum returns the one-sided power spectrum (n/2+1 bins) of a real
// signal zero-padded to fftSize (a power of two).
func PowerSpectrum(signal []float64, fftSize int) []float64 {
	re := make([]float64, fftSize)
	im := make([]float64, fftSize)
	copy(re, signal)
	FFT(re, im)
	out := make([]float64, fftSize/2+1)
	for i := range out {
		out[i] = re[i]*re[i] + im[i]*im[i]
	}
	return out
}

// HannWindow returns an n-point periodic Hann window.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n)))
	}
	return w
}

// Frame splits signal into frames of frameLen samples every hop samples.
// The tail that does not fill a whole frame is dropped.
func Frame(signal []float64, frameLen, hop int) [][]float64 {
	if frameLen <= 0 || hop <= 0 {
		panic("dsp: Frame needs positive frameLen and hop")
	}
	var frames [][]float64
	for start := 0; start+frameLen <= len(signal); start += hop {
		f := make([]float64, frameLen)
		copy(f, signal[start:start+frameLen])
		frames = append(frames, f)
	}
	return frames
}

// DCT2 computes the orthonormal DCT-II of x, returning the first numCoeffs
// coefficients — the final MFCC step.
func DCT2(x []float64, numCoeffs int) []float64 {
	n := len(x)
	out := make([]float64, numCoeffs)
	for k := 0; k < numCoeffs; k++ {
		var s float64
		for i := 0; i < n; i++ {
			s += x[i] * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		scale := math.Sqrt(2 / float64(n))
		if k == 0 {
			scale = math.Sqrt(1 / float64(n))
		}
		out[k] = s * scale
	}
	return out
}

// extractOracle is Extract as a composition of the per-frame steps:
// Frame → window → PowerSpectrum → mel → DCT2.
func extractOracle(cfg FeatureConfig, signal []float64) *tensor.Tensor {
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
		row := logmel
		if cfg.NumCoeffs > 0 {
			row = DCT2(logmel, cfg.NumCoeffs)
		}
		for j, v := range row {
			out.Data[fi*feat+j] = float32(v)
		}
	}
	return out
}

// TestExtractMatchesOracle: the table-driven Extract returns the oracle's
// bits for random signals of every kind of length (shorter than a frame,
// exactly a frame, and not a whole number of hops past one), for both
// front ends.
func TestExtractMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		cfg  FeatureConfig
	}{{"kws", KWSConfig()}, {"ad", ADConfig()}} {
		n, hop := c.cfg.FrameLen, c.cfg.Hop
		lengths := []int{0, 1, n - 1, n, n + 1, n + hop - 1, n + hop, 3*n + hop/3, 16000}
		for range 4 {
			lengths = append(lengths, rng.Intn(20000))
		}
		for _, length := range lengths {
			sig := make([]float64, length)
			for i := range sig {
				sig[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
			}
			got, want := Extract(c.cfg, sig), extractOracle(c.cfg, sig)
			label := fmt.Sprintf("%s len %d", c.name, length)
			if !tensor.SameShape(got, want) {
				t.Fatalf("%s: shape %v, oracle %v", label, got.Shape, want.Shape)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s: element %d = %v, oracle %v", label, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
