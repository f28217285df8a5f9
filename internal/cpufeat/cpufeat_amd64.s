//go:build !purego

#include "textflag.h"

// func hasAVX2() bool
//
// CPUID.1:ECX OSXSAVE+AVX, XCR0 SSE+AVX state enabled by the OS, and
// CPUID.7.0:EBX AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   noavx2
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

noavx2:
	MOVB $0, ret+0(FP)
	RET
