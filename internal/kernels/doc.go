// Package kernels implements the int8 operator kernels the tflm
// interpreter runs — the reproduction of the CMSIS-NN kernel layer and
// its fixed-point requantization scheme. Every kernel reads one int8 per
// byte; there is no sub-byte kernel. The paper's 4-bit models (§5.1.3)
// reach it as int8: 4-bit weights are int8 values in [-8, 7], packed two
// per byte only in the serialized model and the flash accounting, and
// 4-bit activations are a memory and latency emulation that tflm.Prepare
// refuses to run.
//
// Two interchangeable engines implement the same operator contract:
// Reference (straightforward loops, the correctness oracle) and Default
// (GEMM-lowered: im2col + an int8 microkernel over packed weight
// panels). Ops run on either only through BindOp. Both produce
// bit-identical outputs; bench/ (vww_closed, the layer ladder) tracks the
// speed.
//
// # One layout, two bodies
//
// PrepareConv packs a conv/dense weight matrix B[K×N] once into
// [panel][⌈K/2⌉][16][2]int8: panel j holds output columns
// [16j, 16j+16); each 32-byte row of it holds, for one pair of reduction
// indices (2p, 2p+1), the sixteen columns' two weights side by side.
// Columns past N and the odd half of the last pair when K is odd are
// zero. Multipliers are stored as two []int32 (mantissa, right shift),
// zero-padded like the folded bias to whole panels. Depthwise keeps its
// [tap][C] weights and adds a base row bias − inZp·Σw and one pixel of
// zero points that padded taps read; a nine-tap depthwise of at least 8
// channels on a host that runs the assembly also gets its weights as
// int16 tap pairs (pairTaps): per 16-channel group, taps (0,1) … (6,7)
// and (8, zero), each channel's two weights side by side, channels in
// the order 0-3, 8-11, 4-7, 12-15 that the interleave below produces;
// below 16 channels the groups are 8 channels wide, in channel order.
//
// Default's hot loops — GEMM block, requantize-and-store, depthwise
// taps — have two bodies over that layout. gemm_amd64.s is the AVX2 one;
// gemm_wide.go is portable Go and is the only one on other
// architectures and under -tags purego. The choice is made once per
// process (internal/cpufeat: CPUID says AVX2, XGETBV that the OS saves
// YMM state) and then per op at bind time: an op whose multipliers all
// have a right shift in [0, 30] binds the assembly, any other op keeps
// the portable body, whose epilogue is Apply itself; a depthwise binds
// the assembly exactly when it has tap pairs (nine taps, C ≥ 8), and
// below 8 channels runs the portable tap loop. gemmEngine carries the
// choice as a field so the tests run every compiled-in body against
// Reference in one process. The average pool has one body on every
// host: each window tap adds a whole channel row into Scratch.Acc.
//
// # Why the assembly is bit-exact
//
// GEMM: before the panels are walked, each block of four A rows is
// sign-extended to int16 once (widen4, VPMOVSXBW sixteen bytes at a time,
// rows padded to an even length with a zero) into the worker's
// Scratch.WideA. Then per k-pair a panel row is sign-extended (VPMOVSXBW),
// each row's pair is one dword broadcast (VPBROADCASTD), and VPMADDWD
// forms a₀b₀+a₁b₁ per column in int32. Its only saturating input is four
// −32768s; with int8-range operands |a₀b₀+a₁b₁| ≤ 2¹⁵, so it never
// saturates, and VPADDD wraps like Go's int32 — any summation order
// gives Reference's accumulator. The pad element of an odd K meets the
// panel's zero weight. Dense and the rows%4 tail still sign-extend the
// pair in the loop (gemm1x16). (VPMADDUBSW would be one instruction
// shorter and is not used: it saturates its int16 pair sums.)
//
// Depthwise: two taps' rows of sixteen channels are sign-extended and
// interleaved with VPUNPCKLWD/VPUNPCKHWD, which work within each 128-bit
// lane, so one register holds channels 0-3 and 8-11 and the other 4-7
// and 12-15, each as (x_t0, x_t1); VPMADDWD against the matching weight
// pairs gives x_t0·w_t0 + x_t1·w_t1, under 2¹⁵ in magnitude as above.
// Five pairs cover the nine taps (tap 8 meets a zero weight), VPADDD
// wraps, and two VPERM2I128 put channels 0-7 and 8-15 back in order
// before the base row and the requantize. An 8-channel group (C < 16)
// does the same in X registers, where the unpacks' one 128-bit lane
// leaves channels 0-3 and 4-7 in order, and one VINSERTI128 joins them.
//
// Requantize: for a multiplier with no left shift, Apply's rounding
// doubling high multiply (x·M0 + nudge)/2³¹, truncating, with nudge 2³⁰
// or 1−2³⁰ by sign, equals the arithmetic shift (x·M0 + 2³⁰) >> 31 for
// both signs, and since 0 ≤ M0 < 2³¹ the result fits int32. So two
// VPMULDQ (even and odd lanes), VPADDQ, and a 64-bit logical shift that
// leaves bits 31..62 in the lane give it exactly. The rounding right
// shift that follows compares a remainder with a threshold, both below
// 2³⁰ when the shift is at most 30, so it is done in 32-bit lanes
// (VPSRAVD, VPCMPGTD). FuzzRequantize checks the sequence lane for lane.
//
// # Writing the assembly
//
// Two hazards cost more than any instruction choice. Every move that
// touches an X or Y register must be VEX-encoded (VMOVQ, VMOVD — never
// MOVQ AX, X0): a legacy-SSE instruction executed while the upper YMM
// halves are dirty pays a state transition each time, which made an
// early epilogue 30× slower. And every routine ends in VZEROUPPER, so the
// Go code it returns to does not pay the same penalty. go vet's asmdecl
// checks the frame offsets; scalar arguments are loaded with MOVQ/MOVL
// into general registers, never broadcast straight from the frame.
package kernels
