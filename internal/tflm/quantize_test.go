package tflm

import (
	"math"
	"math/rand"
	"testing"

	"micronets/internal/graph"
)

// quantizeInputBranchy is QuantizeInput as it was before the clamp went
// branch-free: the same rounding, then a three-way branch on the value.
// It stays as test code, the form the min/max clamp is held to.
func quantizeInputBranchy(t *graph.Tensor, v float64) int8 {
	lo, hi := -128.0, 127.0
	if t.Bits == 4 {
		lo, hi = -8, 7
	}
	q := math.Round(v/float64(t.Scale)) + float64(t.ZeroPoint)
	switch {
	case q >= hi:
		return int8(hi)
	case q > lo:
		return int8(q)
	}
	return int8(lo)
}

// TestQuantizeInputMatchesBranchForm: the branch-free QuantizeInput
// equals the branchy form for 8- and 4-bit tensors on 200 random (scale,
// zero point) pairs × 4,000 values (N(0,1) times a random spread, so
// both rails and the interior are hit), at every rounding and
// saturation threshold of the 8-bit range ±1 ulp, and at ±0, ±Inf,
// ±1e300 and NaN.
func TestQuantizeInputMatchesBranchForm(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	check := func(tt *graph.Tensor, v float64) {
		t.Helper()
		if got, want := QuantizeInput(tt, v), quantizeInputBranchy(tt, v); got != want {
			t.Fatalf("%d-bit scale %g zero point %d: QuantizeInput(%g) = %d, branch form %d",
				tt.Bits, tt.Scale, tt.ZeroPoint, v, got, want)
		}
	}
	for pair := 0; pair < 200; pair++ {
		scale := float32(math.Pow(10, -4+4*rng.Float64()))
		zp := int32(rng.Intn(256) - 128)
		spread := math.Pow(10, -1+3*rng.Float64())
		for _, bits := range []int{8, 4} {
			tt := &graph.Tensor{Scale: scale, ZeroPoint: zp, Bits: bits}
			if bits == 4 {
				tt.ZeroPoint = zp % 8
			}
			for i := 0; i < 4000/2; i++ {
				check(tt, rng.NormFloat64()*spread)
			}
			for _, v := range specials {
				check(tt, v)
			}
			for q := -130.5; q <= 130.5; q += 0.5 {
				v := (q - float64(tt.ZeroPoint)) * float64(scale)
				for _, x := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
					check(tt, x)
				}
			}
		}
	}
}
