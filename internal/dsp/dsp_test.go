package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is an O(n^2) reference implementation.
func naiveDFT(x []float64) (re, im []float64) {
	n := len(x)
	re = make([]float64, n)
	im = make([]float64, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			re[k] += x[t] * math.Cos(ang)
			im[k] += x[t] * math.Sin(ang)
		}
	}
	return re, im
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 64, 256} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		wre, wim := naiveDFT(x)
		re := append([]float64(nil), x...)
		im := make([]float64, n)
		FFT(re, im)
		for k := 0; k < n; k++ {
			if math.Abs(re[k]-wre[k]) > 1e-6*float64(n) || math.Abs(im[k]-wim[k]) > 1e-6*float64(n) {
				t.Fatalf("n=%d bin %d: (%g,%g) vs naive (%g,%g)", n, k, re[k], im[k], wre[k], wim[k])
			}
		}
	}
}

// fftRecurrence is FFT with its twiddle factors computed in the
// butterfly loop, by the recurrence run once per block: the oracle for
// the table in fft.
func fftRecurrence(re, im []float64) {
	n := len(re)
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

// TestFFTMatchesRecurrence: FFT's twiddle table gives the same bits as
// computing the factors per block, for every size up to 4096.
func TestFFTMatchesRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 4096; n <<= 1 {
		re, im := make([]float64, n), make([]float64, n)
		for i := range re {
			re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		wre, wim := append([]float64(nil), re...), append([]float64(nil), im...)
		fftRecurrence(wre, wim)
		FFT(re, im)
		for k := range re {
			if math.Float64bits(re[k]) != math.Float64bits(wre[k]) || math.Float64bits(im[k]) != math.Float64bits(wim[k]) {
				t.Fatalf("n=%d bin %d: (%v,%v), recurrence (%v,%v)", n, k, re[k], im[k], wre[k], wim[k])
			}
		}
	}
}

func TestFFTPureToneBin(t *testing.T) {
	// A pure tone at bin 8 of a 64-point FFT puts all one-sided energy there.
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 8 * float64(i) / float64(n))
	}
	ps := PowerSpectrum(x, n)
	best := 0
	for i, v := range ps {
		if v > ps[best] {
			best = i
		}
	}
	if best != 8 {
		t.Fatalf("tone detected at bin %d, want 8", best)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 128
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var timeEnergy float64
		for _, v := range x {
			timeEnergy += v * v
		}
		re := append([]float64(nil), x...)
		im := make([]float64, n)
		FFT(re, im)
		var freqEnergy float64
		for i := range re {
			freqEnergy += re[i]*re[i] + im[i]*im[i]
		}
		freqEnergy /= float64(n)
		return math.Abs(timeEnergy-freqEnergy) < 1e-6*timeEnergy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 640: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestHannWindowShape(t *testing.T) {
	w := HannWindow(64)
	if w[0] != 0 {
		t.Fatalf("Hann start %v, want 0", w[0])
	}
	if math.Abs(w[32]-1) > 1e-9 {
		t.Fatalf("Hann midpoint %v, want 1", w[32])
	}
}

func TestFrameCount(t *testing.T) {
	sig := make([]float64, 16000) // 1s at 16 kHz
	frames := Frame(sig, 640, 320)
	if len(frames) != 49 {
		t.Fatalf("1s KWS framing gives %d frames, want 49 (paper §4.2)", len(frames))
	}
}

func TestMelScaleRoundTrip(t *testing.T) {
	for _, hz := range []float64{20, 300, 1000, 4000, 8000} {
		back := MelToHz(HzToMel(hz))
		if math.Abs(back-hz) > 1e-6*hz {
			t.Fatalf("mel round trip %v -> %v", hz, back)
		}
	}
}

func TestMelFilterbankPartitionOfUnityish(t *testing.T) {
	fb := MelFilterbank(40, 1024, 16000, 20, 8000)
	if len(fb) != 40 {
		t.Fatalf("filter count %d", len(fb))
	}
	// Every filter must have non-negative weights summing > 0.
	for i, f := range fb {
		var s float64
		for _, w := range f {
			if w < 0 {
				t.Fatalf("filter %d has negative weight", i)
			}
			s += w
		}
		if s <= 0 {
			t.Fatalf("filter %d is empty", i)
		}
	}
	// Filters should be ordered by center frequency: peak bins increasing.
	prev := -1
	for i, f := range fb {
		peak := 0
		for b, w := range f {
			if w > f[peak] {
				peak = b
			}
		}
		if peak < prev {
			t.Fatalf("filter %d peak %d before previous %d", i, peak, prev)
		}
		prev = peak
	}
}

func TestDCT2OrthonormalDC(t *testing.T) {
	// DCT of a constant vector concentrates everything in coefficient 0.
	x := []float64{2, 2, 2, 2}
	c := DCT2(x, 4)
	if math.Abs(c[0]-4) > 1e-9 { // sqrt(1/4)*sum = 0.5*8
		t.Fatalf("DC coeff %v, want 4", c[0])
	}
	for k := 1; k < 4; k++ {
		if math.Abs(c[k]) > 1e-9 {
			t.Fatalf("AC coeff %d = %v, want 0", k, c[k])
		}
	}
}

func TestExtractKWSShape(t *testing.T) {
	cfg := KWSConfig()
	sig := make([]float64, 16000)
	rng := rand.New(rand.NewSource(2))
	for i := range sig {
		sig[i] = rng.NormFloat64() * 0.1
	}
	feat := Extract(cfg, sig)
	if feat.Shape[0] != 49 || feat.Shape[1] != 10 || feat.Shape[2] != 1 {
		t.Fatalf("KWS features shape %v, want [49 10 1]", feat.Shape)
	}
}

func TestExtractADShapeAndStacking(t *testing.T) {
	cfg := ADConfig()
	sig := make([]float64, 16000*3)
	rng := rand.New(rand.NewSource(3))
	for i := range sig {
		sig[i] = rng.NormFloat64() * 0.1
	}
	spec := Extract(cfg, sig)
	if spec.Shape[1] != 64 {
		t.Fatalf("AD features %v, want 64 bins", spec.Shape)
	}
	imgs := StackSpectrogramImages(spec, 64, 20)
	if len(imgs) == 0 {
		t.Fatal("no stacked images")
	}
	if imgs[0].Shape[0] != 64 || imgs[0].Shape[1] != 64 {
		t.Fatalf("stacked image shape %v", imgs[0].Shape)
	}
}

func TestExtractDistinguishesTones(t *testing.T) {
	// Two different pure tones must produce clearly different features; this
	// is the property the synthetic keyword dataset relies on.
	cfg := KWSConfig()
	mk := func(freq float64) []float64 {
		sig := make([]float64, 16000)
		for i := range sig {
			sig[i] = math.Sin(2 * math.Pi * freq * float64(i) / 16000)
		}
		return sig
	}
	a := Extract(cfg, mk(300))
	b := Extract(cfg, mk(1200))
	var dist float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		dist += d * d
	}
	if math.Sqrt(dist) < 1 {
		t.Fatalf("tone features too close: %v", math.Sqrt(dist))
	}
}

func TestNormalizeMeanStd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sig := make([]float64, 16000)
	for i := range sig {
		sig[i] = rng.NormFloat64()*3 + 7
	}
	feat := Extract(KWSConfig(), sig)
	NormalizeMeanStd(feat)
	var mean, ss float64
	for _, v := range feat.Data {
		mean += float64(v)
	}
	mean /= float64(feat.Len())
	for _, v := range feat.Data {
		ss += (float64(v) - mean) * (float64(v) - mean)
	}
	std := math.Sqrt(ss / float64(feat.Len()))
	if math.Abs(mean) > 1e-4 || math.Abs(std-1) > 1e-3 {
		t.Fatalf("normalized mean=%v std=%v", mean, std)
	}
}
