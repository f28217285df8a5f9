package kernels

import "math"

// QuantizedMultiplier is the fixed-point representation of a positive real
// multiplier m = m0 * 2^shift with m0 a Q31 value in [0.5, 1), exactly the
// TFLite/CMSIS-NN scheme.
type QuantizedMultiplier struct {
	M0    int32
	Shift int
}

// QuantizeMultiplier converts a double multiplier into fixed point.
func QuantizeMultiplier(m float64) QuantizedMultiplier {
	if m <= 0 {
		return QuantizedMultiplier{M0: 0, Shift: 0}
	}
	frac, exp := math.Frexp(m) // m = frac * 2^exp, frac in [0.5, 1)
	q := int64(math.Round(frac * (1 << 31)))
	if q == 1<<31 { // rounding overflow: 0.5 ulp above max
		q /= 2
		exp++
	}
	return QuantizedMultiplier{M0: int32(q), Shift: exp}
}

// Apply computes round(x * m) using only integer arithmetic, following
// TFLite's MultiplyByQuantizedMultiplier: an optional left shift, a
// saturating rounding doubling high multiply by the Q31 mantissa, then a
// rounding right shift.
func (q QuantizedMultiplier) Apply(x int32) int32 {
	leftShift, rightShift := 0, 0
	if q.Shift > 0 {
		leftShift = q.Shift
	} else {
		rightShift = -q.Shift
	}
	v := int64(x) << uint(leftShift)
	// SaturatingRoundingDoublingHighMul. The division must truncate toward
	// zero (as C++ '/' does in gemmlowp) — an arithmetic right shift floors
	// instead, which under-rounds negative products by one.
	prod := v * int64(q.M0)
	nudge := int64(1) << 30
	if prod < 0 {
		nudge = 1 - nudge
	}
	high := (prod + nudge) / (int64(1) << 31)
	if rightShift == 0 {
		return int32(high)
	}
	// RoundingDivideByPOT.
	mask := (int64(1) << uint(rightShift)) - 1
	remainder := high & mask
	threshold := mask >> 1
	if high < 0 {
		threshold++
	}
	res := high >> uint(rightShift)
	if remainder > threshold {
		res++
	}
	return int32(res)
}

func clamp32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
