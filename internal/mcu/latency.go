package mcu

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"micronets/internal/graph"
)

// Cost-model constants, calibrated so whole-model latencies match the
// paper's Table 4 on the Cortex-M7 baseline (see DESIGN.md §5):
//
//	cycles/MAC = cpmBase + cpmSetup/n,  n = dot-product length (kh*kw*inC)
//
// Long dot products amortize per-output setup (pointer arithmetic, SIMD
// head/tail handling), which is why depthwise convolutions (n = 9) are much
// slower per op than pointwise convolutions — the spread in Figure 3 — and
// why larger models achieve higher Mops/s.
const (
	cpmBase  = 1.20
	cpmSetup = 83.0

	// div4Penalty models the CMSIS-NN fast path: the int8 conv kernel is
	// "substantially faster when the number of input and output channels
	// are divisible by four" (§3.2: 138->140 channels cut latency 37.5 ms
	// to 21.5 ms).
	div4Penalty = 1.74

	// im2colPerElem is the per-patch-element cost of the IM2COL expansion
	// CMSIS-NN performs for non-1x1 convolutions (§3.2).
	im2colPerElem = 0.55

	// Sub-byte emulation overheads (§5.1.3, Figure 10): unpacking 4-bit
	// weights / activations with 8/16-bit instructions adds per-MAC work.
	int4WeightPerMAC = 0.35
	int4ActPerMAC    = 0.17

	// Cheap elementwise ops, cycles per element.
	poolPerElemTap = 1.1
	addPerElem     = 4.0
	softmaxPerElem = 70.0

	// Fixed per-inference overhead (interpreter dispatch etc), cycles.
	invokeOverhead = 30000

	// layerNoiseSigma is the lognormal sigma of the deterministic
	// per-layer-shape cost perturbation, representing micro-architectural
	// effects the analytic model does not capture (cache alignment, loop
	// remainders). This creates the Figure 3 scatter; whole models average
	// it away, which is the paper's central Figure 4 observation.
	layerNoiseSigma = 0.095
)

// layerNoise returns a deterministic lognormal factor keyed by the op's
// shape signature, shared across devices (the same layer is consistently
// fast or slow, as on real hardware).
func layerNoise(op *graph.Op, m *graph.Model) float64 {
	h := fnv.New64a()
	out := m.Tensors[op.Output]
	in := m.Tensors[op.Inputs[0]]
	for _, v := range []int{int(op.Kind), op.KH, op.KW, op.SH, in.C, out.C, out.H, out.W} {
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return math.Exp(rng.NormFloat64() * layerNoiseSigma)
}

// OpCycles returns the modeled cycle count for one op on the M7 baseline
// (before the device CycleFactor is applied). An op kind the cost model
// does not cover is an error: scoring it as zero cycles would let a
// malformed model undercut every real candidate in a latency-ranked
// search.
func OpCycles(m *graph.Model, op *graph.Op) (float64, error) {
	in := m.Tensors[op.Inputs[0]]
	out := m.Tensors[op.Output]
	macs := float64(op.MACs(m))
	var cycles float64
	switch op.Kind {
	case graph.OpConv2D, graph.OpTransposedConv:
		n := float64(op.KH * op.KW * in.C)
		cpm := cpmBase + cpmSetup/n
		// The ÷4 fast path concerns the channel-vectorized inner loop;
		// image-input layers (inC <= 3) use a dedicated kernel and are
		// exempt.
		if (in.C > 3 && in.C%4 != 0) || out.C%4 != 0 {
			cpm *= div4Penalty
		}
		cycles = macs * cpm
		if op.KH*op.KW > 1 {
			// IM2COL: every output position copies a kh*kw*inC patch.
			cycles += float64(out.H*out.W*op.KH*op.KW*in.C) * im2colPerElem
		}
	case graph.OpDWConv2D:
		n := float64(op.KH * op.KW)
		cpm := cpmBase + cpmSetup/n
		if out.C%4 != 0 {
			cpm *= math.Sqrt(div4Penalty) // dw kernel is less channel-vectorized
		}
		cycles = macs * cpm
	case graph.OpDense:
		n := float64(in.Elems())
		cpm := cpmBase + cpmSetup/math.Max(n, 1)
		cycles = macs * cpm
	case graph.OpAvgPool, graph.OpMaxPool:
		cycles = float64(out.Elems()*op.KH*op.KW) * poolPerElemTap
	case graph.OpAdd:
		cycles = float64(out.Elems()) * addPerElem
	case graph.OpSoftmax:
		cycles = float64(out.Elems()) * softmaxPerElem
	default:
		return 0, fmt.Errorf("mcu: no latency model for op %s (kind %v)", op.Name, op.Kind)
	}
	// Sub-byte emulation overheads apply to the MAC-bearing kernels.
	if macs > 0 {
		if op.WeightBits == 4 {
			cycles += macs * int4WeightPerMAC
		}
		if in.Bits == 4 || out.Bits == 4 {
			cycles += macs * int4ActPerMAC
		}
	}
	return cycles * layerNoise(op, m), nil
}

// LayerLatency describes one op's modeled latency on a device.
type LayerLatency struct {
	Name    string
	Kind    graph.OpKind
	Ops     int64
	Seconds float64
}

// ModelLatency returns the end-to-end inference latency in seconds for the
// model on the device, plus the per-layer breakdown. A model with no ops
// has nothing to invoke: latency is 0 and the breakdown is empty (rather
// than charging the interpreter dispatch overhead for a dispatch that
// never happens). A device the cost model cannot score (missing clock or
// cycle calibration) or an op with no latency model is an error, never a
// silent 0 — a 0-second candidate would Pareto-dominate every real one.
func ModelLatency(m *graph.Model, dev *Device) (float64, []LayerLatency, error) {
	if dev == nil {
		return 0, nil, fmt.Errorf("mcu: ModelLatency needs a device")
	}
	if dev.ClockMHz <= 0 || dev.CycleFactor <= 0 {
		return 0, nil, fmt.Errorf("mcu: device %s has no latency calibration (clock %.1f MHz, cycle factor %.3f)",
			dev.Name, dev.ClockMHz, dev.CycleFactor)
	}
	if len(m.Ops) == 0 {
		return 0, nil, nil
	}
	clock := dev.ClockMHz * 1e6
	total := invokeOverhead / clock * dev.CycleFactor
	layers := make([]LayerLatency, 0, len(m.Ops))
	for _, op := range m.Ops {
		cycles, err := OpCycles(m, op)
		if err != nil {
			return 0, nil, err
		}
		sec := cycles * dev.CycleFactor / clock
		total += sec
		layers = append(layers, LayerLatency{
			Name: op.Name, Kind: op.Kind, Ops: op.Ops(m), Seconds: sec,
		})
	}
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return 0, nil, fmt.Errorf("mcu: non-finite latency for %s on %s", m.Name, dev.Name)
	}
	return total, layers, nil
}

// Latency returns just the end-to-end latency in seconds. Unlike
// ModelLatency it keeps the historical convenience signature for report
// renderers over known-good zoo models; an unscoreable model/device pair
// returns NaN so the failure poisons downstream numbers visibly instead
// of ranking as a free model.
func Latency(m *graph.Model, dev *Device) float64 {
	t, _, err := ModelLatency(m, dev)
	if err != nil {
		return math.NaN()
	}
	return t
}
