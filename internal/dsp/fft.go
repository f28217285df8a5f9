// Package dsp implements the audio feature extraction front end used by
// the keyword-spotting and anomaly-detection tasks: framing, windowing, a
// radix-2 FFT, mel filterbanks, log-mel spectrograms and MFCCs, matching
// the preprocessing described in §4.2 and §4.3 of the paper.
package dsp

import "math"

// fft computes an in-place iterative radix-2 Cooley-Tukey FFT of the
// complex sequence (re, im), len(re) = len(im) a power of two, with the
// twiddle table newTwiddles(len(re)); a caller transforming many frames
// of one size builds the table once.
func fft(re, im []float64, tw twiddles) {
	n := len(re)
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		wr, wi := tw.re[half-1:length-1], tw.im[half-1:length-1]
		for start := 0; start < n; start += length {
			for k := 0; k < half; k++ {
				cr, ci := wr[k], wi[k]
				i0, i1 := start+k, start+k+half
				tr := re[i1]*cr - im[i1]*ci
				ti := re[i1]*ci + im[i1]*cr
				re[i1] = re[i0] - tr
				im[i1] = im[i0] - ti
				re[i0] += tr
				im[i0] += ti
			}
		}
	}
}

// twiddles holds the factors of every butterfly stage of an n-point FFT:
// stage length L (2, 4, …, n) uses the L/2 entries from index L/2−1.
type twiddles struct {
	re, im []float64
}

// newTwiddles builds the table for an n-point FFT, n a power of two.
// Stage L's factor k is the complex recurrence c ← c·e^(−2πi/L) applied
// k times to 1, not the cosine and sine of k times the angle: the MFCCs,
// and through them the DNAS warm-start digest, are pinned to the
// recurrence's bits (TestFFTMatchesRecurrence).
func newTwiddles(n int) twiddles {
	t := twiddles{re: make([]float64, n-1), im: make([]float64, n-1)}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wr, wi := math.Cos(ang), math.Sin(ang)
		cr, ci := 1.0, 0.0
		half := length / 2
		for k := 0; k < half; k++ {
			t.re[half-1+k], t.im[half-1+k] = cr, ci
			cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
		}
	}
	return t
}

// NextPow2 returns the smallest power of two >= n.
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
