//go:build !purego

#include "textflag.h"

// AVX2 bodies of the Default engine (see doc.go for the layout and the
// bit-exactness argument). Two rules every line here follows:
//   - every instruction that names an X or Y register is VEX-encoded
//     (VMOVQ/VMOVD, never MOVQ/MOVL to an X register): one legacy-SSE
//     write while the upper halves are dirty costs a state transition
//     per instruction;
//   - every routine ends in VZEROUPPER before RET.

// Field offsets of the epilogue struct (gemm_amd64.go).
#define E_BIAS 0
#define E_M0 8
#define E_RSHIFT 16
#define E_OUTZP 24
#define E_LO 28
#define E_HI 32

// 2^30, the rounding term of the doubling high multiply.
DATA round30<>+0(SB)/8, $0x40000000
GLOBL round30<>(SB), RODATA|NOPTR, $8

// VPSHUFB control gathering byte 0 of each dword into the low dword of
// its 128-bit lane.
DATA lowbytes<>+0(SB)/8, $0x808080800c080400
DATA lowbytes<>+8(SB)/8, $0x8080808080808080
DATA lowbytes<>+16(SB)/8, $0x808080800c080400
DATA lowbytes<>+24(SB)/8, $0x8080808080808080
GLOBL lowbytes<>(SB), RODATA|NOPTR, $32

// LOADCONST broadcasts the epilogue scalars: Y12=hi Y13=lo Y14=outZp
// Y15=2^30 (per qword). e is the register holding *epilogue.
#define LOADCONST(e) \
	VPBROADCASTD E_HI(e), Y12; \
	VPBROADCASTD E_LO(e), Y13; \
	VPBROADCASTD E_OUTZP(e), Y14; \
	VPBROADCASTQ round30<>(SB), Y15

// REQUANT turns the eight int32 lanes of acc into eight int8 at dst:
// high = (acc*m0 + 2^30) >> 31 through two VPMULDQ (even and odd lanes;
// VPSRLQ 31 / VPSLLQ 1 leave bits 31..62 of each product in the lane's
// own dword), then the round-half-away-from-zero right shift of
// RoundingDivideByPOT (remainder vs threshold, all in 32 bits), output
// zero point, clamp, and the low byte of every lane. m0 lanes are read
// at off(R11), right shifts at off(R12); clobbers Y8-Y11.
#define REQUANT(acc, accx, off, dst) \
	VMOVDQU off(R11), Y8; \
	VPSRLQ $32, acc, Y9; \
	VPSRLQ $32, Y8, Y10; \
	VPMULDQ Y8, acc, Y8; \
	VPMULDQ Y10, Y9, Y9; \
	VPADDQ Y15, Y8, Y8; \
	VPADDQ Y15, Y9, Y9; \
	VPSRLQ $31, Y8, Y8; \
	VPSLLQ $1, Y9, Y9; \
	VPBLENDD $0xAA, Y9, Y8, acc; \
	VMOVDQU off(R12), Y8; \
	VPCMPEQD Y9, Y9, Y9; \
	VPSLLVD Y8, Y9, Y10; \
	VPANDN acc, Y10, Y11; \
	VPXOR Y9, Y10, Y10; \
	VPSRLD $1, Y10, Y10; \
	VPSRAD $31, acc, Y9; \
	VPSUBD Y9, Y10, Y10; \
	VPCMPGTD Y10, Y11, Y11; \
	VPSRAVD Y8, acc, acc; \
	VPSUBD Y11, acc, acc; \
	VPADDD Y14, acc, acc; \
	VPMAXSD Y13, acc, acc; \
	VPMINSD Y12, acc, acc; \
	VPSHUFB lowbytes<>(SB), acc, acc; \
	VEXTRACTI128 $1, acc, X8; \
	VPUNPCKLDQ X8, accx, accx; \
	VMOVQ accx, dst

// LOADB sign-extends one panel row (16 columns x one k-pair, 32 bytes
// at DI) into Y8 (columns 0-7) and Y9 (columns 8-15).
#define LOADB \
	VPMOVSXBW (DI), Y8; \
	VPMOVSXBW 16(DI), Y9

// MADD accumulates the broadcast A pair in Y10 against Y8/Y9.
// VPMADDWD of int8-range int16 cannot saturate (|a0*b0+a1*b1| <= 2^15)
// and VPADDD wraps like Go's int32.
#define MADD(lo, hi) \
	VPMADDWD Y8, Y10, Y11; \
	VPADDD Y11, lo, lo; \
	VPMADDWD Y9, Y10, Y12; \
	VPADDD Y12, hi, hi

// ROWPAIR broadcasts the int8 pair at addr, sign-extended to int16, to
// every dword of Y10 and accumulates it.
#define ROWPAIR(addr, lo, hi) \
	VPBROADCASTW addr, X10; \
	VPMOVSXBW X10, Y10; \
	MADD(lo, hi)

// ROWLAST is ROWPAIR for the last element of an odd-length row: the pair
// is (a, 0), so nothing past the row is read.
#define ROWLAST(addr, lo, hi) \
	MOVBLSX addr, BX; \
	MOVWLZX BX, BX; \
	VMOVD BX, X10; \
	VPBROADCASTD X10, Y10; \
	MADD(lo, hi)

// EPIPTRS points R10/R11/R12 at lane col of bias/m0/rshift. e holds
// *epilogue; clobbers BX.
#define EPIPTRS(e, col) \
	MOVQ col, BX; \
	MOVQ E_BIAS(e), R10; \
	LEAQ (R10)(BX*4), R10; \
	MOVQ E_M0(e), R11; \
	LEAQ (R11)(BX*4), R11; \
	MOVQ E_RSHIFT(e), R12; \
	LEAQ (R12)(BX*4), R12

// func widen4(a *int8, k int, w *int16)
//
// Sign-extends the four k-length rows at a (stride k) into the int16
// block gemm4x16w reads: row r at w[r*kp:], kp = k rounded up to even,
// w[r*kp+k] = 0 when k is odd. Sixteen values per VPMOVSXBW, the last
// sixteen of a run overlapping the one before, eight per X-register
// VPMOVSXBW for runs of 8 to 15, so no byte outside the rows is read
// and only runs shorter than eight widen one value at a time. An even k
// leaves no gap between rows, so the block widens as one run of 4k.
TEXT ·widen4(SB), NOSPLIT, $0-24
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ w+16(FP), DI
	MOVQ $4, R8
	MOVQ CX, R9
	LEAQ 2(CX)(CX*1), R10
	TESTQ $1, CX
	JNZ   wrow
	SHLQ  $2, R9
	MOVQ  $1, R8

wrow:
	XORQ AX, AX
	CMPQ R9, $16
	JLT  w8
	LEAQ -16(R9), BX

w16:
	CMPQ AX, BX
	JGE  w16last
	VPMOVSXBW (SI)(AX*1), Y0
	VMOVDQU   Y0, (DI)(AX*2)
	ADDQ      $16, AX
	JMP       w16

w16last:
	VPMOVSXBW (SI)(BX*1), Y0
	VMOVDQU   Y0, (DI)(BX*2)
	JMP       wpad

w8:
	CMPQ      R9, $8
	JLT       w1
	VPMOVSXBW (SI), X0
	VMOVDQU   X0, (DI)
	VPMOVSXBW -8(SI)(R9*1), X0
	VMOVDQU   X0, -16(DI)(R9*2)
	JMP       wpad

w1:
	MOVBLSX (SI)(AX*1), BX
	MOVW    BX, (DI)(AX*2)
	INCQ    AX
	CMPQ    AX, R9
	JLT     w1

wpad:
	TESTQ $1, CX
	JZ    wdone
	MOVW  $0, (DI)(CX*2)
	ADDQ  CX, SI
	ADDQ  R10, DI
	DECQ  R8
	JNZ   wrow

wdone:
	VZEROUPPER
	RET

// WIDEPAIR broadcasts the widened k-pair at addr (two int16, one dword)
// to every dword of Y10 and accumulates it.
#define WIDEPAIR(addr, lo, hi) \
	VPBROADCASTD addr, Y10; \
	MADD(lo, hi)

// func gemm4x16w(w *int16, kp int, b *int8, e *epilogue, col int, out *int8, ldc int)
//
// out[r*ldc+c] = requant(bias[col+c] + sum_k w[r*kp+k]*B[k][c]) for
// r in [0,4), c in [0,16), w the block widen4 built (kp even, the
// padding element zero) and B one packed panel.
TEXT ·gemm4x16w(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), SI
	MOVQ kp+8(FP), CX
	MOVQ b+16(FP), DI
	LEAQ (CX)(CX*1), R8
	LEAQ (R8)(R8*2), R9
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	SHRQ $1, CX
	JZ   epi4

loop4:
	LOADB
	WIDEPAIR((SI), Y0, Y1)
	WIDEPAIR((SI)(R8*1), Y2, Y3)
	WIDEPAIR((SI)(R8*2), Y4, Y5)
	WIDEPAIR((SI)(R9*1), Y6, Y7)
	ADDQ $4, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop4

epi4:
	MOVQ e+24(FP), AX
	EPIPTRS(AX, col+32(FP))
	LOADCONST(AX)
	MOVQ out+40(FP), DX
	MOVQ ldc+48(FP), R13
	LEAQ (R13)(R13*2), BX
	VPADDD (R10), Y0, Y0
	VPADDD 32(R10), Y1, Y1
	VPADDD (R10), Y2, Y2
	VPADDD 32(R10), Y3, Y3
	VPADDD (R10), Y4, Y4
	VPADDD 32(R10), Y5, Y5
	VPADDD (R10), Y6, Y6
	VPADDD 32(R10), Y7, Y7
	REQUANT(Y0, X0, 0, (DX))
	REQUANT(Y1, X1, 32, 8(DX))
	REQUANT(Y2, X2, 0, (DX)(R13*1))
	REQUANT(Y3, X3, 32, 8(DX)(R13*1))
	REQUANT(Y4, X4, 0, (DX)(R13*2))
	REQUANT(Y5, X5, 32, 8(DX)(R13*2))
	REQUANT(Y6, X6, 0, (DX)(BX*1))
	REQUANT(Y7, X7, 32, 8(DX)(BX*1))
	VZEROUPPER
	RET

// func gemm1x16(a *int8, k int, b *int8, e *epilogue, col int, out *int8)
//
// The one-row variant of gemm4x16: Dense, and the rows%4 tail of a conv.
TEXT ·gemm1x16(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ b+16(FP), DI
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ CX, AX
	SHRQ $1, CX
	JZ   tail1

loop1:
	LOADB
	ROWPAIR((SI), Y0, Y1)
	ADDQ $2, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop1

tail1:
	TESTQ $1, AX
	JZ    epi1
	LOADB
	ROWLAST((SI), Y0, Y1)

epi1:
	MOVQ e+24(FP), AX
	EPIPTRS(AX, col+32(FP))
	LOADCONST(AX)
	MOVQ out+40(FP), DX
	VPADDD (R10), Y0, Y0
	VPADDD 32(R10), Y1, Y1
	REQUANT(Y0, X0, 0, (DX))
	REQUANT(Y1, X1, 32, 8(DX))
	VZEROUPPER
	RET

// DWPAIR accumulates taps t0 and t1 of a depthwise pixel for sixteen
// channels: AX = tap pointer table, DX = pixel offset + channel, BX the
// group's interleaved weights (PrepareConv's dwPairs), off the pair's
// byte offset in them. The two rows are sign-extended and interleaved
// (VPUNPCKLWD/VPUNPCKHWD work within each 128-bit lane) so every dword
// holds one channel's (x_t0, x_t1), which VPMADDWD turns into
// x_t0*w_t0 + x_t1*w_t1: Y0 collects channels 0-3 and 8-11, Y1 channels
// 4-7 and 12-15.
#define DWPAIR(t0, t1, off) \
	MOVQ (t0*8)(AX), SI; \
	VPMOVSXBW (SI)(DX*1), Y8; \
	MOVQ (t1*8)(AX), SI; \
	VPMOVSXBW (SI)(DX*1), Y9; \
	DWMADD(Y9, off)

// DWLAST is DWPAIR for tap 8, paired with itself against a zero weight.
#define DWLAST(off) \
	MOVQ (8*8)(AX), SI; \
	VPMOVSXBW (SI)(DX*1), Y8; \
	DWMADD(Y8, off)

// DWMADD interleaves Y8 with the second tap's row and accumulates.
#define DWMADD(second, off) \
	VPUNPCKLWD second, Y8, Y10; \
	VPUNPCKHWD second, Y8, Y11; \
	VPMADDWD off(BX), Y10, Y10; \
	VPMADDWD (off+32)(BX), Y11, Y11; \
	VPADDD Y10, Y0, Y0; \
	VPADDD Y11, Y1, Y1

// DWPAIRX, DWLASTX and DWMADDX are DWPAIR, DWLAST and DWMADD for an
// eight-channel group in X registers: the unpacks then leave channels
// 0-3 in X10 and 4-7 in X11, already in order, for X0 and X1.
#define DWPAIRX(t0, t1, off) \
	MOVQ (t0*8)(AX), SI; \
	VPMOVSXBW (SI)(DX*1), X8; \
	MOVQ (t1*8)(AX), SI; \
	VPMOVSXBW (SI)(DX*1), X9; \
	DWMADDX(X9, off)

#define DWLASTX(off) \
	MOVQ (8*8)(AX), SI; \
	VPMOVSXBW (SI)(DX*1), X8; \
	DWMADDX(X8, off)

#define DWMADDX(second, off) \
	VPUNPCKLWD second, X8, X10; \
	VPUNPCKHWD second, X8, X11; \
	VPMADDWD off(BX), X10, X10; \
	VPMADDWD (off+16)(BX), X11, X11; \
	VPADDD X10, X0, X0; \
	VPADDD X11, X1, X1

// func dwPairs9(taps *[9]*int8, w *int16, c int, base *int32, e *epilogue, out *int8, npix, step int)
//
// Nine-tap depthwise over npix consecutive output pixels, channels
// innermost in groups of sixteen, or of eight when c < 16 (the last group
// overlaps the one before when c is not a multiple of the group, so
// c >= 8 and nothing outside [0,c) is touched):
// out[p*c+ch] = requant(base[ch] + sum_t taps[t][p*step+ch]*w_t[ch]),
// w holding each group's five tap pairs as DWPAIR (DWPAIRX) reads them.
TEXT ·dwPairs9(SB), NOSPLIT, $0-64
	MOVQ taps+0(FP), AX
	MOVQ c+16(FP), CX
	MOVQ out+40(FP), DI
	MOVQ npix+48(FP), R8
	MOVQ e+32(FP), R13
	LOADCONST(R13)
	XORQ R10, R10
	CMPQ CX, $16
	JLT  dw8pixel

dwpixel:
	XORQ R9, R9
	MOVQ w+8(FP), BX

dwgroup:
	LEAQ (R10)(R9*1), DX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	DWPAIR(0, 1, 0)
	DWPAIR(2, 3, 64)
	DWPAIR(4, 5, 128)
	DWPAIR(6, 7, 192)
	DWLAST(256)
	VPERM2I128 $0x20, Y1, Y0, Y2
	VPERM2I128 $0x31, Y1, Y0, Y3
	MOVQ base+24(FP), R13
	VPADDD (R13)(R9*4), Y2, Y2
	VPADDD 32(R13)(R9*4), Y3, Y3
	MOVQ e+32(FP), R13
	MOVQ E_M0(R13), R11
	LEAQ (R11)(R9*4), R11
	MOVQ E_RSHIFT(R13), R12
	LEAQ (R12)(R9*4), R12
	REQUANT(Y2, X2, 0, (DI)(R9*1))
	REQUANT(Y3, X3, 32, 8(DI)(R9*1))
	ADDQ $320, BX
	ADDQ $16, R9
	CMPQ R9, CX
	JGE  dwnext
	LEAQ 16(R9), R13
	CMPQ R13, CX
	JLE  dwgroup
	LEAQ -16(CX), R9
	JMP  dwgroup

dwnext:
	ADDQ step+56(FP), R10
	ADDQ CX, DI
	DECQ R8
	JNZ  dwpixel
	VZEROUPPER
	RET

dw8pixel:
	XORQ R9, R9
	MOVQ w+8(FP), BX

dw8group:
	LEAQ (R10)(R9*1), DX
	VPXOR X0, X0, X0
	VPXOR X1, X1, X1
	DWPAIRX(0, 1, 0)
	DWPAIRX(2, 3, 32)
	DWPAIRX(4, 5, 64)
	DWPAIRX(6, 7, 96)
	DWLASTX(128)
	VINSERTI128 $1, X1, Y0, Y2
	MOVQ base+24(FP), R13
	VPADDD (R13)(R9*4), Y2, Y2
	MOVQ e+32(FP), R13
	MOVQ E_M0(R13), R11
	LEAQ (R11)(R9*4), R11
	MOVQ E_RSHIFT(R13), R12
	LEAQ (R12)(R9*4), R12
	REQUANT(Y2, X2, 0, (DI)(R9*1))
	ADDQ $160, BX
	ADDQ $8, R9
	CMPQ R9, CX
	JGE  dw8next
	LEAQ -8(CX), R9
	JMP  dw8group

dw8next:
	ADDQ step+56(FP), R10
	ADDQ CX, DI
	DECQ R8
	JNZ  dw8pixel
	VZEROUPPER
	RET
