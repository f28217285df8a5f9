//go:build !purego

#include "textflag.h"

// AVX2 bodies of panel, axpy and mulAdd (vec.go). Every lane is one
// VMULPS and one VADDPS, never an FMA, so each result is rounded twice
// like the Go body's; the operands sit in the order the Go compiler gives
// them (b·a and src·a, a[j]·b[j], then product + sum), so even a NaN
// payload matches. VEX encoding throughout and VZEROUPPER before RET.

// func panelAVX2(out, a *float32, aStride int, b *float32, bStride, k int, accumulate bool)
//
// The 64 output floats live in Y0-Y7 for all k reduction steps and are
// stored once. The steps run in chunks of up to PANEL_CHUNK: a scalar
// pass copies each step's left factor (to the table at 0(SP)) and b row
// address (to the table at PANEL_PTRS(SP)) and, without a branch, keeps
// the entry only when the factor's bits without the sign are nonzero
// (a ≠ 0: +0 and -0 drop out, a NaN stays); then the vector pass
// broadcasts each kept factor and adds b·a into the accumulators. k > 0.
//
// The frame holds both tables: PANEL_CHUNK·4 bytes of factors, then
// PANEL_CHUNK·8 bytes of addresses. The TEXT line needs the frame size
// as a literal, so 384 = 32·4 + 32·8 must change with PANEL_CHUNK
// (TestPanelFrameHoldsChunk checks it).
#define PANEL_CHUNK 32
#define PANEL_PTRS (PANEL_CHUNK*4)

TEXT ·panelAVX2(SB), NOSPLIT, $384-49
	MOVQ   out+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   aStride+16(FP), AX
	SHLQ   $2, AX
	MOVQ   b+24(FP), DX
	MOVQ   bStride+32(FP), BX
	SHLQ   $2, BX
	MOVQ   k+40(FP), CX
	CMPB   accumulate+48(FP), $0
	JNE    panelload
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP    panelchunk

panelload:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7

panelchunk:
	MOVQ    $PANEL_CHUNK, R8 // R8 = steps in this chunk
	CMPQ    CX, R8
	CMOVQLT CX, R8
	SUBQ    R8, CX
	XORQ    R10, R10         // R10 = entries kept

panelgather:
	MOVL  (SI), R9
	MOVL  R9, (SP)(R10*4)
	MOVQ  DX, PANEL_PTRS(SP)(R10*8)
	SHLL  $1, R9       // drop the sign bit
	NEGL  R9           // CF = (R9 != 0)
	ADCQ  $0, R10      // keep the entry just written
	ADDQ  AX, SI
	ADDQ  BX, DX
	DECQ  R8
	JNE   panelgather
	TESTQ R10, R10
	JEQ   panelnext
	XORQ  R11, R11

panelstep:
	VBROADCASTSS (SP)(R11*4), Y8
	MOVQ         PANEL_PTRS(SP)(R11*8), R12
	VMOVUPS      (R12), Y9
	VMOVUPS      32(R12), Y10
	VMOVUPS      64(R12), Y11
	VMOVUPS      96(R12), Y12
	VMULPS       Y8, Y9, Y9
	VMULPS       Y8, Y10, Y10
	VMULPS       Y8, Y11, Y11
	VMULPS       Y8, Y12, Y12
	VADDPS       Y0, Y9, Y0
	VADDPS       Y1, Y10, Y1
	VADDPS       Y2, Y11, Y2
	VADDPS       Y3, Y12, Y3
	VMOVUPS      128(R12), Y9
	VMOVUPS      160(R12), Y10
	VMOVUPS      192(R12), Y11
	VMOVUPS      224(R12), Y12
	VMULPS       Y8, Y9, Y9
	VMULPS       Y8, Y10, Y10
	VMULPS       Y8, Y11, Y11
	VMULPS       Y8, Y12, Y12
	VADDPS       Y4, Y9, Y4
	VADDPS       Y5, Y10, Y5
	VADDPS       Y6, Y11, Y6
	VADDPS       Y7, Y12, Y7
	INCQ         R11
	CMPQ         R11, R10
	JLT          panelstep

panelnext:
	TESTQ   CX, CX
	JNE     panelchunk
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

// func axpyAVX2(dst, src *float32, n int, a float32)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0

axpy32:
	CMPQ    CX, $32
	JLT     axpy8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     axpy32

axpy8:
	CMPQ    CX, $8
	JLT     axpy1
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     axpy8

axpy1:
	TESTQ  CX, CX
	JEQ    axpydone
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// func mulAddAVX2(dst, a, b *float32, n int)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX

muladd32:
	CMPQ    CX, $32
	JLT     muladd8
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMULPS  (DX), Y0, Y0
	VMULPS  32(DX), Y1, Y1
	VMULPS  64(DX), Y2, Y2
	VMULPS  96(DX), Y3, Y3
	VADDPS  (DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VADDPS  64(DI), Y2, Y2
	VADDPS  96(DI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     muladd32

muladd8:
	CMPQ    CX, $8
	JLT     muladd1
	VMOVUPS (SI), Y0
	VMULPS  (DX), Y0, Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     muladd8

muladd1:
	TESTQ  CX, CX
	JEQ    muladddone
	VMOVSS (SI), X0
	VMULSS (DX), X0, X0
	VADDSS (DI), X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DX
	ADDQ   $4, DI
	DECQ   CX
	JMP    muladd1

muladddone:
	VZEROUPPER
	RET
