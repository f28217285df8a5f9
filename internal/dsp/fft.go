// Package dsp implements the audio feature extraction front end used by
// the keyword-spotting and anomaly-detection tasks: framing, windowing, a
// radix-2 FFT, mel filterbanks, log-mel spectrograms and MFCCs, matching
// the preprocessing described in §4.2 and §4.3 of the paper.
package dsp

import (
	"fmt"
	"math"
)

// FFT computes an in-place iterative radix-2 Cooley-Tukey FFT of the
// complex sequence (re, im). len(re) must be a power of two.
func FFT(re, im []float64) {
	n := len(re)
	if n != len(im) {
		panic("dsp: FFT re/im length mismatch")
	}
	if n&(n-1) != 0 || n == 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
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
		ang := -2 * math.Pi / float64(length)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			cr, ci := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				i0, i1 := start+k, start+k+half
				tr := re[i1]*cr - im[i1]*ci
				ti := re[i1]*ci + im[i1]*cr
				re[i1] = re[i0] - tr
				im[i1] = im[i0] - ti
				re[i0] += tr
				im[i0] += ti
				cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n.
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
