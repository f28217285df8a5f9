//go:build !purego

#include "textflag.h"

// AVX2 bodies of axpy and mulAdd (vec.go). Every lane is one VMULPS and
// one VADDPS, never an FMA, so each result is rounded twice like the Go
// body's; the operands sit in the order the Go compiler gives them
// (src·a, a[j]·b[j], then product + dst), so even a NaN payload matches.
// Main loop 32 floats, then 8, then scalar VEX ops for the tail; VEX
// encoding throughout and VZEROUPPER before RET.

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
