package kernels

import (
	"math"

	"micronets/internal/graph"
)

// Ctx carries one op's precomputed kernel state: the requantization
// multipliers plus the Default engine's packed weights. The tflm
// interpreter builds one per op at AllocateTensors time (this is part of
// what TFLM's "persistent buffers" hold, Figure 2). Reference, the
// portable microkernels and the assembly all read the same slices.
type Ctx struct {
	// m0 and rshift are the per-output-channel multipliers as two arrays
	// (what the vector requantize loads): channel c scales by
	// QuantizedMultiplier{m0[c], -rshift[c]}. For Conv2D and Dense they
	// are zero-padded to whole panels, like zpBias; an ADD holds its
	// three multipliers here (prepareAdd). m0 has one more int32 of zero
	// padding: the vector requantize reads the odd lanes' multipliers
	// through a load four bytes past the even lanes' one. rmask and
	// rhalf are each channel's rounding constants for its right shift,
	// (1<<rshift)−1 and half that, so the rounding right shift compares
	// against them instead of building them per output. vecRequant
	// records that every rshift and the op's clamp are in the assembly
	// epilogue's domain (vectorShift, int8Clamp).
	m0, rshift   []int32
	rmask, rhalf []int32
	vecRequant   bool

	// GEMM state, populated for Conv2D and Dense ops. k is the reduction
	// length (kh*kw*inC for conv, input elems for dense), panels is the
	// weight matrix packed by packPanels, and zpBias is the bias with the
	// input zero-point term folded in (bias[oc] − inZp·Σₖ w[k][oc]).
	k      int
	panels []int8
	zpBias []int32

	// Depthwise state. dwBase[ch] = bias[ch] − inZp·Σ_taps w[tap][ch] is
	// the accumulator every output pixel starts from; dwPad is one pixel
	// of input zero points that padded taps read instead of the input,
	// which cancels the folded term exactly — so border and interior
	// pixels run the same tap loop. dwPairs is the weights interleaved
	// for the assembly's tap-pair body (pairTaps), built only for
	// nine-tap ops of at least dwGroup/2 channels on hosts that run it;
	// its presence is what binds that body.
	dwBase  []int32
	dwPad   []int8
	dwPairs []int16
}

// vectorShift reports whether a right shift is in the vector requantize's
// domain: no left shift, and a rounding mask that fits 32-bit lanes.
func vectorShift(rshift int32) bool { return rshift >= 0 && rshift <= 30 }

// int8Clamp reports whether a clamp is in the vector requantize's domain,
// -128 <= lo <= hi <= 127: the assembly saturates to int8 before it
// clamps, which equals clamp-then-truncate only for such a clamp.
func int8Clamp(lo, hi int32) bool { return -128 <= lo && lo <= hi && hi <= 127 }

// newCtx returns a Ctx for lanes multipliers, all zero (each lane scales
// by zero until prepareMult), with the odd-lane padding of m0.
func newCtx(lanes int, lo, hi int32) *Ctx {
	return &Ctx{
		m0: make([]int32, lanes+1)[:lanes], rshift: make([]int32, lanes),
		rmask: make([]int32, lanes), rhalf: make([]int32, lanes),
		vecRequant: int8Clamp(lo, hi),
	}
}

// prepareMult stores lane ch's multiplier and, in the vector domain, its
// rounding constants.
func (c *Ctx) prepareMult(ch int, q QuantizedMultiplier) {
	rshift := int32(-q.Shift)
	c.m0[ch], c.rshift[ch] = q.M0, rshift
	if !vectorShift(rshift) {
		c.vecRequant = false
		return
	}
	c.rmask[ch] = int32(1)<<rshift - 1
	c.rhalf[ch] = c.rmask[ch] >> 1
}

// mult returns channel c's multiplier in the form Apply takes.
func (c *Ctx) mult(ch int) QuantizedMultiplier {
	return QuantizedMultiplier{M0: c.m0[ch], Shift: -int(c.rshift[ch])}
}

// PrepareConv precomputes per-channel multipliers for a conv/dense op
// (effective scale = inScale * wScale[c] / outScale) and, for the ops the
// Default engine lowers to matrix multiplication, packs the weights and
// folds the input zero point into the bias.
func PrepareConv(m *graph.Model, op *graph.Op) *Ctx {
	in := m.Tensors[op.Inputs[0]]
	out := m.Tensors[op.Output]
	lanes := len(op.WeightScales)
	if op.Kind != graph.OpDWConv2D {
		lanes = (lanes + gemmNR - 1) / gemmNR * gemmNR
	}
	ctx := newCtx(lanes, op.ClampMin, op.ClampMax)
	for c, ws := range op.WeightScales {
		ctx.prepareMult(c, QuantizeMultiplier(float64(in.Scale)*float64(ws)/float64(out.Scale)))
	}
	switch op.Kind {
	case graph.OpConv2D:
		ctx.k = convK(m, op)
	case graph.OpDense:
		ctx.k = in.Elems()
	case graph.OpDWConv2D:
		ctx.dwBase = foldZeroPoint(op.Weights, op.KH*op.KW, out.C, op.Bias, in.ZeroPoint, out.C)
		ctx.dwPad = make([]int8, out.C)
		for i := range ctx.dwPad {
			ctx.dwPad[i] = int8(in.ZeroPoint)
		}
		if haveSIMD && ctx.vecRequant && op.KH*op.KW == 9 && out.C >= dwGroup/2 {
			ctx.dwPairs = pairTaps(op.Weights, out.C)
		}
		return ctx
	default:
		return ctx
	}
	ctx.panels = packPanels(op.Weights, ctx.k, out.C)
	ctx.zpBias = foldZeroPoint(op.Weights, ctx.k, out.C, op.Bias, in.ZeroPoint, lanes)
	return ctx
}

// Conv2D executes a quantized standard convolution. Weight layout is
// [kh][kw][inC][outC]; activations are NHWC with N=1.
func Conv2D(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8) {
	it := m.Tensors[op.Inputs[0]]
	ot := m.Tensors[op.Output]
	inZp := it.ZeroPoint
	outZp := ot.ZeroPoint
	h, w, inC := it.H, it.W, it.C
	oh, ow, outC := ot.H, ot.W, ot.C
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			outBase := (oy*ow + ox) * outC
			for oc := 0; oc < outC; oc++ {
				acc := op.Bias[oc]
				for ky := 0; ky < op.KH; ky++ {
					iy := oy*op.SH + ky - op.PadTop
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < op.KW; kx++ {
						ix := ox*op.SW + kx - op.PadLeft
						if ix < 0 || ix >= w {
							continue
						}
						inBase := (iy*w + ix) * inC
						wBase := ((ky*op.KW+kx)*inC)*outC + oc
						for ic := 0; ic < inC; ic++ {
							acc += (int32(in[inBase+ic]) - inZp) * int32(op.Weights[wBase+ic*outC])
						}
					}
				}
				v := ctx.mult(oc).Apply(acc) + outZp
				out[outBase+oc] = int8(clamp32(v, op.ClampMin, op.ClampMax))
			}
		}
	}
}

// DWConv2D executes a quantized depthwise convolution (multiplier 1).
// Weight layout is [kh][kw][c].
func DWConv2D(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8) {
	it := m.Tensors[op.Inputs[0]]
	ot := m.Tensors[op.Output]
	inZp := it.ZeroPoint
	outZp := ot.ZeroPoint
	h, w, c := it.H, it.W, it.C
	oh, ow := ot.H, ot.W
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			outBase := (oy*ow + ox) * c
			for ch := 0; ch < c; ch++ {
				acc := op.Bias[ch]
				for ky := 0; ky < op.KH; ky++ {
					iy := oy*op.SH + ky - op.PadTop
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < op.KW; kx++ {
						ix := ox*op.SW + kx - op.PadLeft
						if ix < 0 || ix >= w {
							continue
						}
						acc += (int32(in[(iy*w+ix)*c+ch]) - inZp) * int32(op.Weights[(ky*op.KW+kx)*c+ch])
					}
				}
				v := ctx.mult(ch).Apply(acc) + outZp
				out[outBase+ch] = int8(clamp32(v, op.ClampMin, op.ClampMax))
			}
		}
	}
}

// Dense executes a quantized fully connected layer. Weight layout is
// [in][out].
func Dense(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8) {
	it := m.Tensors[op.Inputs[0]]
	ot := m.Tensors[op.Output]
	inZp := it.ZeroPoint
	outZp := ot.ZeroPoint
	n := it.Elems()
	outC := ot.C
	for oc := 0; oc < outC; oc++ {
		acc := op.Bias[oc]
		for i := 0; i < n; i++ {
			acc += (int32(in[i]) - inZp) * int32(op.Weights[i*outC+oc])
		}
		v := ctx.mult(oc).Apply(acc) + outZp
		out[oc] = int8(clamp32(v, op.ClampMin, op.ClampMax))
	}
}

// AvgPool executes average pooling; input and output share quantization
// parameters (as arranged by the exporter), so only integer averaging with
// round-to-nearest is required.
func AvgPool(m *graph.Model, op *graph.Op, in, out []int8) {
	it := m.Tensors[op.Inputs[0]]
	ot := m.Tensors[op.Output]
	h, w, c := it.H, it.W, it.C
	oh, ow := ot.H, ot.W
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			outBase := (oy*ow + ox) * c
			for ch := 0; ch < c; ch++ {
				var sum, count int32
				for ky := 0; ky < op.KH; ky++ {
					iy := oy*op.SH + ky
					if iy >= h {
						continue
					}
					for kx := 0; kx < op.KW; kx++ {
						ix := ox*op.SW + kx
						if ix >= w {
							continue
						}
						sum += int32(in[(iy*w+ix)*c+ch])
						count++
					}
				}
				if count == 0 {
					count = 1
				}
				out[outBase+ch] = int8(clamp32(roundDiv(sum, count), op.ClampMin, op.ClampMax))
			}
		}
	}
}

// roundDiv is the average pools' integer mean: sum/count rounded to
// nearest, halves away from zero.
func roundDiv(sum, count int32) int32 {
	if sum >= 0 {
		return (sum + count/2) / count
	}
	return (sum - count/2) / count
}

// MaxPool executes max pooling.
func MaxPool(m *graph.Model, op *graph.Op, in, out []int8) {
	maxPoolRows(m, op, in, out, 0, m.Tensors[op.Output].H)
}

// maxPoolRows pools output rows [oy0, oy1).
func maxPoolRows(m *graph.Model, op *graph.Op, in, out []int8, oy0, oy1 int) {
	it := m.Tensors[op.Inputs[0]]
	ot := m.Tensors[op.Output]
	h, w, c := it.H, it.W, it.C
	ow := ot.W
	for oy := oy0; oy < oy1; oy++ {
		for ox := 0; ox < ow; ox++ {
			outBase := (oy*ow + ox) * c
			for ch := 0; ch < c; ch++ {
				best := int32(-128)
				for ky := 0; ky < op.KH; ky++ {
					iy := oy*op.SH + ky
					if iy >= h {
						continue
					}
					for kx := 0; kx < op.KW; kx++ {
						ix := ox*op.SW + kx
						if ix >= w {
							continue
						}
						if v := int32(in[(iy*w+ix)*c+ch]); v > best {
							best = v
						}
					}
				}
				out[outBase+ch] = int8(clamp32(best, op.ClampMin, op.ClampMax))
			}
		}
	}
}

// addLeftShift is TFLM's int8 ADD headroom: each input, less its zero
// point, is shifted left by this many bits before its rescale, so the two
// rescaled terms keep 20 fractional bits and only the output rescale
// rounds to the int8 grid.
const addLeftShift = 20

// prepareAdd computes TFLM's three ADD multipliers into a Ctx: input a's
// and input b's (each scale over twice the larger input scale, so at most
// 0.5) and the output's (twice the larger input scale over 2^20 times the
// output scale), as m0/rshift lanes 0, 1 and 2.
func prepareAdd(m *graph.Model, op *graph.Op) *Ctx {
	sa := float64(m.Tensors[op.Inputs[0]].Scale)
	sb := float64(m.Tensors[op.Inputs[1]].Scale)
	so := float64(m.Tensors[op.Output].Scale)
	twiceMax := 2 * max(sa, sb)
	ctx := newCtx(3, op.ClampMin, op.ClampMax)
	for i, real := range [3]float64{sa / twiceMax, sb / twiceMax, twiceMax / (float64(1<<addLeftShift) * so)} {
		ctx.prepareMult(i, QuantizeMultiplier(real))
	}
	return ctx
}

// addParams is one bound ADD's state: prepareAdd's multipliers, the
// tensors' zero points and clamp, and each rescale's rounding constants
// eight times over, the vectors the assembly's rounding right shift
// reads. The assembly reads it by field offset (gemm_amd64.s), so the
// layout is fixed.
type addParams struct {
	m0, rshift              [3]int32 // input a, input b, output
	aZp, bZp, outZp, lo, hi int32
	rmask, rhalf            [3][8]int32
}

func newAddParams(m *graph.Model, op *graph.Op, ctx *Ctx) addParams {
	p := addParams{
		aZp: m.Tensors[op.Inputs[0]].ZeroPoint, bZp: m.Tensors[op.Inputs[1]].ZeroPoint,
		outZp: m.Tensors[op.Output].ZeroPoint, lo: op.ClampMin, hi: op.ClampMax,
	}
	copy(p.m0[:], ctx.m0)
	copy(p.rshift[:], ctx.rshift)
	for i := range p.rmask {
		for lane := range p.rmask[i] {
			p.rmask[i][lane], p.rhalf[i][lane] = ctx.rmask[i], ctx.rhalf[i]
		}
	}
	return p
}

// Add executes TFLM's integer-only int8 ADD: each input, less its zero
// point and shifted left by addLeftShift, is rescaled by its own
// multiplier; the sum is rescaled by the output's, offset by the output
// zero point, clamped and narrowed. No step leaves int32/int64 integer
// arithmetic, as on a Cortex-M without a double-precision FPU.
func Add(m *graph.Model, op *graph.Op, ctx *Ctx, a, b, out []int8) {
	p := newAddParams(m, op, ctx)
	p.add(a, b, out)
}

// add is the portable ADD loop over len(out) elements.
func (p *addParams) add(a, b, out []int8) {
	qa := QuantizedMultiplier{M0: p.m0[0], Shift: -int(p.rshift[0])}
	qb := QuantizedMultiplier{M0: p.m0[1], Shift: -int(p.rshift[1])}
	qo := QuantizedMultiplier{M0: p.m0[2], Shift: -int(p.rshift[2])}
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		va := qa.Apply((int32(a[i]) - p.aZp) << addLeftShift)
		vb := qb.Apply((int32(b[i]) - p.bZp) << addLeftShift)
		out[i] = int8(clamp32(qo.Apply(va+vb)+p.outZp, p.lo, p.hi))
	}
}

// softmaxInto dequantizes the logits, computes a stable softmax, and emits
// int8 with the standard TFLite output quantization (scale 1/256, zp
// -128). The dequantized logits are staged in the caller's buffer
// (len ≥ input elems), so bound ops allocate nothing.
func softmaxInto(m *graph.Model, op *graph.Op, in, out []int8, logits []float64) {
	it := m.Tensors[op.Inputs[0]]
	ot := m.Tensors[op.Output]
	n := it.Elems()
	logits = logits[:n]
	maxv := math.Inf(-1)
	for i := 0; i < n; i++ {
		logits[i] = float64(it.Scale) * float64(int32(in[i])-it.ZeroPoint)
		if logits[i] > maxv {
			maxv = logits[i]
		}
	}
	var sum float64
	for i := range logits {
		logits[i] = math.Exp(logits[i] - maxv)
		sum += logits[i]
	}
	for i := range logits {
		p := logits[i] / sum
		q := int32(math.Round(p/float64(ot.Scale))) + ot.ZeroPoint
		out[i] = int8(clamp32(q, op.ClampMin, op.ClampMax))
	}
}
