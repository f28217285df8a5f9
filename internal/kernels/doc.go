// Package kernels implements the int8 (and emulated int4) reference
// operator kernels used by the tflm interpreter — the reproduction of the
// CMSIS-NN kernel layer, including its fixed-point requantization scheme
// and the sub-byte kernels the paper adds in §5.1.3.
//
// Two interchangeable engines implement the same operator contract:
// Reference (straightforward loops, the correctness oracle) and Default
// (GEMM-lowered: im2col + a 16-wide int8 microkernel). Ops run on either
// only through BindOp. Both produce bit-identical outputs; cmd/bench
// -exp engine tracks the speedup.
package kernels
