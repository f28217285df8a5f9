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
// zero points that padded taps read.
//
// Default's three hot loops — GEMM block, requantize-and-store, depthwise
// taps — have two bodies over that layout. gemm_amd64.s is the AVX2 one;
// gemm_wide.go is portable Go and is the only one on other
// architectures and under -tags purego. The choice is made once per
// process (internal/cpufeat: CPUID says AVX2, XGETBV that the OS saves
// YMM state) and then per op at bind time: an op whose multipliers all
// have a right shift in [0, 30] binds the assembly, any other op keeps
// the portable body, whose epilogue is Apply itself. gemmEngine carries
// the choice as a field so the tests run every compiled-in body against
// Reference in one process.
//
// # Why the assembly is bit-exact
//
// GEMM: a panel row is sign-extended to int16 (VPMOVSXBW), an A pair is
// sign-extended and broadcast, and VPMADDWD forms a₀b₀+a₁b₁ per column in
// int32. Its only saturating input is four −32768s; with int8-range
// operands |a₀b₀+a₁b₁| ≤ 2¹⁵, so it never saturates, and VPADDD wraps
// like Go's int32 — any summation order gives Reference's accumulator.
// (VPMADDUBSW would be one instruction shorter and is not used: it
// saturates its int16 pair sums.)
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
