//go:build !purego

#include "textflag.h"

// AVX2 bodies of the Default engine (see doc.go for the layout and the
// bit-exactness argument). Two rules every line here follows:
//   - every instruction that names an X or Y register is VEX-encoded
//     (VMOVQ/VMOVD, never MOVQ/MOVL to an X register): one legacy-SSE
//     write while the upper halves are dirty costs a state transition
//     per instruction;
//   - every routine ends in VZEROUPPER before RET.

// Field offsets of the epilogue struct (gemm.go).
#define E_BIAS 0
#define E_M0 8
#define E_RSHIFT 16
#define E_RMASK 24
#define E_RHALF 32
#define E_OUTZP 40
#define E_LO 44
#define E_HI 48

// Field offsets of the addParams struct (ops.go).
#define A_M0 0
#define A_RSHIFT 12
#define A_AZP 24
#define A_BZP 28
#define A_OUTZP 32
#define A_LO 36
#define A_HI 40
#define A_RMASK 44
#define A_RHALF 140

// 2^30, the rounding term of the doubling high multiply.
DATA round30<>+0(SB)/8, $0x40000000
GLOBL round30<>(SB), RODATA|NOPTR, $8

// VPERMD control (dwords 0, 4, 1, 5, 2, 6, 3, 7) putting the dwords of a
// two-step pack (PACK2) back in row order.
DATA packperm<>+0(SB)/4, $0
DATA packperm<>+4(SB)/4, $4
DATA packperm<>+8(SB)/4, $1
DATA packperm<>+12(SB)/4, $5
DATA packperm<>+16(SB)/4, $2
DATA packperm<>+20(SB)/4, $6
DATA packperm<>+24(SB)/4, $3
DATA packperm<>+28(SB)/4, $7
GLOBL packperm<>(SB), RODATA|NOPTR, $32

// LOADCONST broadcasts the epilogue scalars: Y12=hi and Y13=lo (as
// bytes), Y14=outZp (per dword), Y15=2^30 (per qword). e is the register
// holding *epilogue.
#define LOADCONST(e) \
	VPBROADCASTB E_HI(e), Y12; \
	VPBROADCASTB E_LO(e), Y13; \
	VPBROADCASTD E_OUTZP(e), Y14; \
	VPBROADCASTQ round30<>(SB), Y15

// SRDHM is the rounding doubling high multiply of eight int32 lanes:
// acc = (acc*m + 2^30) >> 31 through two VPMULDQ, which read the low
// dword of each qword: m for the even lanes, modd for the odd ones (a
// load of the same multiplier row four bytes on, or m itself when every
// lane holds one multiplier); VPSHUFD brings the odd lanes down. VPSRLQ
// 31 leaves bits 31..62 of an even product in its lane's dword, and
// doubling an odd one (VPADDQ, |2(p + 2^30)| < 2^63) puts them in the
// high dword, its lane; only three of the eight run on the shift and
// multiply ports. Needs Y15 = 2^30 per qword; clobbers Y9 and Y11.
#define SRDHM(acc, m, modd) \
	VPSHUFD $0xF5, acc, Y9; \
	VPMULDQ m, acc, Y11; \
	VPMULDQ modd, Y9, Y9; \
	VPADDQ Y15, Y11, Y11; \
	VPADDQ Y15, Y9, Y9; \
	VPSRLQ $31, Y11, Y11; \
	VPADDQ Y9, Y9, Y9; \
	VPBLENDD $0xAA, Y9, Y11, acc

// RDPOT is RoundingDivideByPOT of eight int32 lanes by the right shifts
// rs (each in [0, 30]), with mask = 2^rs − 1 and half = mask >> 1
// prepared per lane: an arithmetic shift, plus one where the remainder
// acc&mask exceeds half (half + 1 for a negative lane), tested as
// remainder + (acc >> 31) > half. Clobbers Y10 and Y11.
#define RDPOT(acc, rs, mask, half) \
	VPAND mask, acc, Y11; \
	VPSRAD $31, acc, Y10; \
	VPADDD Y10, Y11, Y11; \
	VPCMPGTD half, Y11, Y11; \
	VPSRAVD rs, acc, acc; \
	VPSUBD Y11, acc, acc

// REQUANT rescales eight int32 lanes (SRDHM, RDPOT) and adds the output
// zero point (Y14); the packs below saturate and clamp them. Clobbers
// Y9-Y11.
#define REQUANT(acc, m, modd, rs, mask, half) \
	SRDHM(acc, m, modd); \
	RDPOT(acc, rs, mask, half); \
	VPADDD Y14, acc, acc

// EPIREQ is REQUANT of the eight lanes at byte offset off of the
// per-channel rows at R10 (m0), R11 (rshift), R12 (rmask) and R13
// (rhalf). The operands are base+offset only: an indexed memory operand
// of a three-operand instruction is unlaminated into two uops.
#define EPIREQ(acc, off) \
	REQUANT(acc, off(R10), (off+4)(R10), off(R11), off(R12), off(R13))

// EPIBASES points R10 (m0), R11 (rshift), R12 (rmask) and R13 (rhalf)
// at lane ix of the per-channel rows of *epilogue e.
#define EPIBASES(e, ix) \
	MOVQ E_M0(e), R10; \
	LEAQ (R10)(ix*4), R10; \
	MOVQ E_RSHIFT(e), R11; \
	LEAQ (R11)(ix*4), R11; \
	MOVQ E_RMASK(e), R12; \
	LEAQ (R12)(ix*4), R12; \
	MOVQ E_RHALF(e), R13; \
	LEAQ (R13)(ix*4), R13

// NARROW16 saturates sixteen requantized lanes, columns 0-7 in lo and
// 8-15 in hi, to int8 in column order in lox and clamps them to
// [Y13, Y12]. Saturating first and clamping after equals clamping the
// int32 because [lo, hi] lies inside [-128, 127] (int8Clamp). Clobbers
// hi.
#define NARROW16(lo, hi, lox, hix) \
	VPACKSSDW hi, lo, lo; \
	VPERMQ $0xD8, lo, lo; \
	VEXTRACTI128 $1, lo, hix; \
	VPACKSSWB hix, lox, lox; \
	VPMAXSB X13, lox, lox; \
	VPMINSB X12, lox, lox

// NARROW8 is NARROW16 for eight lanes in acc; the eight bytes land in the
// low qword of accx. Clobbers tmpx.
#define NARROW8(acc, accx, tmpx) \
	VEXTRACTI128 $1, acc, tmpx; \
	VPACKSSDW tmpx, accx, accx; \
	VPACKSSWB accx, accx, accx; \
	VPMAXSB X13, accx, accx; \
	VPMINSB X12, accx, accx

// PACK2 saturates two rows of sixteen requantized lanes (row a's columns
// 0-7 in lo0 and 8-15 in hi0, row b's in lo1 and hi1) to int8: row a's
// sixteen bytes in the low 128 bits of lo0, row b's in the high. The
// two packs work within 128-bit lanes and leave dwords in the order
// a0-3 a8-11 b0-3 b8-11 | a4-7 a12-15 b4-7 b12-15, which the VPERMD by
// packperm (Y8) undoes. Clobbers hi0 and lo1.
#define PACK2(lo0, hi0, lo1, hi1) \
	VPACKSSDW hi0, lo0, lo0; \
	VPACKSSDW hi1, lo1, lo1; \
	VPACKSSWB lo1, lo0, lo0; \
	VPERMD lo0, Y8, lo0

// LOADB sign-extends one panel row (16 columns x one k-pair, 32 bytes
// at DI) into Y8 (columns 0-7) and Y9 (columns 8-15).
#define LOADB \
	VPMOVSXBW (DI), Y8; \
	VPMOVSXBW 16(DI), Y9

// MADD accumulates the broadcast A pair in Y10 against Y8/Y9.
// VPMADDWD of int8-range int16 cannot saturate (|a0*b0+a1*b1| <= 2^15)
// and VPADDD wraps like Go's int32. Clobbers Y11 only, so Y12-Y15 can
// hold the epilogue constants through the loop.
#define MADD(lo, hi) \
	VPMADDWD Y8, Y10, Y11; \
	VPADDD Y11, lo, lo; \
	VPMADDWD Y9, Y10, Y11; \
	VPADDD Y11, hi, hi

// ROWPAIR broadcasts the int8 pair at addr, sign-extended to int16, to
// every dword of Y10 and accumulates it.
#define ROWPAIR(addr, lo, hi) \
	VPBROADCASTW addr, X10; \
	VPMOVSXBW X10, Y10; \
	MADD(lo, hi)

// ROWLAST is ROWPAIR for the last element of an odd-length row: the pair
// is (a, 0), so nothing past the row is read. Clobbers R9.
#define ROWLAST(addr, lo, hi) \
	MOVBLSX addr, R9; \
	MOVWLZX R9, R9; \
	VMOVD R9, X10; \
	VPBROADCASTD X10, Y10; \
	MADD(lo, hi)

// WIDEPAIR broadcasts the widened k-pair at addr (two int16, one dword)
// to every dword of Y10 and accumulates it.
#define WIDEPAIR(addr, lo, hi) \
	VPBROADCASTD addr, Y10; \
	MADD(lo, hi)

// HALFPAIR is WIDEPAIR against columns 0-7 only (Y8).
#define HALFPAIR(addr, acc) \
	VPBROADCASTD addr, Y10; \
	VPMADDWD Y8, Y10, Y11; \
	VPADDD Y11, acc, acc

// func gemmTile(a *int8, rows, k int, wide *int16, b *int8, e *epilogue, out *int8, n int)
//
// out[r*n+c] = requant(bias[c] + sum_k a[r*k+k']*B[k'][c]) for r in
// [0, rows), c in [0, n), rows and k at least 1, B the packed panels at
// b. Per block of four
// rows, the rows are sign-extended once into wide, row r at
// wide[r*kp:], kp = k rounded up to even and w[r*kp+k] = 0 when k is
// odd: sixteen values per VPMOVSXBW, the last sixteen of a run
// overlapping the one before, eight per X-register VPMOVSXBW for runs of
// 8 to 15, so no byte outside the rows is read (an even k leaves no gap
// between rows, so the block widens as one run). A last block of two or
// three rows runs as a whole block whose missing rows hold whatever wide
// held (their results are never stored); a last block of one row runs
// the one-row pass (gtone). Then every panel runs from accumulators
// holding the folded bias: sixteen columns in Y0-Y7 (row r in Y2r,
// Y2r+1), or, for a last panel of at most eight live columns, eight in
// Y0, Y2, Y4, Y6. A whole block is stored straight from the packed
// registers; any other goes through the frame (row stride in R10) and a
// byte loop that writes only its live rows and columns. The frame's
// last two words hold the k-pair count and the wide row's bytes, and
// the block counters live in the argument slots: a and out advance and
// rows counts down.
TEXT ·gemmTile(SB), NOSPLIT, $80-64
	MOVQ e+40(FP), AX
	LOADCONST(AX)
	MOVQ k+16(FP), R8
	MOVQ R8, CX
	ANDQ $1, CX
	ADDQ CX, R8
	MOVQ R8, CX
	SHRQ $1, CX
	MOVQ CX, 64(SP)
	SHLQ $1, R8
	MOVQ R8, 72(SP)

gtblock:
	MOVQ    rows+8(FP), R11
	MOVQ    $4, R12
	CMPQ    R11, R12
	CMOVQGT R12, R11
	MOVQ    a+0(FP), SI
	MOVQ    k+16(FP), CX
	MOVQ    wide+24(FP), DI
	MOVQ    R11, R8
	MOVQ    CX, R9
	LEAQ    2(CX)(CX*1), R10
	TESTQ   $1, CX
	JNZ     gtwrow
	IMULQ   R11, R9
	MOVQ    $1, R8

gtwrow:
	XORQ AX, AX
	CMPQ R9, $16
	JLT  gtw8
	LEAQ -16(R9), BX

gtw16:
	CMPQ      AX, BX
	JGE       gtw16last
	VPMOVSXBW (SI)(AX*1), Y0
	VMOVDQU   Y0, (DI)(AX*2)
	ADDQ      $16, AX
	JMP       gtw16

gtw16last:
	VPMOVSXBW (SI)(BX*1), Y0
	VMOVDQU   Y0, (DI)(BX*2)
	JMP       gtwpad

gtw8:
	CMPQ      R9, $8
	JLT       gtw1
	VPMOVSXBW (SI), X0
	VMOVDQU   X0, (DI)
	VPMOVSXBW -8(SI)(R9*1), X0
	VMOVDQU   X0, -16(DI)(R9*2)
	JMP       gtwpad

gtw1:
	MOVBLSX (SI)(AX*1), BX
	MOVW    BX, (DI)(AX*2)
	INCQ    AX
	CMPQ    AX, R9
	JLT     gtw1

gtwpad:
	TESTQ $1, CX
	JZ    gtpanels
	MOVW  $0, (DI)(CX*2)
	ADDQ  CX, SI
	ADDQ  R10, DI
	DECQ  R8
	JNZ   gtwrow

gtpanels:
	MOVQ b+32(FP), DI
	XORQ BX, BX

gtpanel:
	MOVQ 64(SP), CX
	MOVQ 72(SP), R8
	LEAQ (R8)(R8*2), R9
	MOVQ wide+24(FP), SI
	MOVQ e+40(FP), AX
	MOVQ E_BIAS(AX), R10
	MOVQ n+56(FP), DX
	SUBQ BX, DX
	CMPQ rows+8(FP), $1
	JEQ  gtone
	CMPQ DX, $8
	JLE  gthalf
	VMOVDQU (R10)(BX*4), Y0
	VMOVDQU 32(R10)(BX*4), Y1
	VMOVDQA Y0, Y2
	VMOVDQA Y1, Y3
	VMOVDQA Y0, Y4
	VMOVDQA Y1, Y5
	VMOVDQA Y0, Y6
	VMOVDQA Y1, Y7
	TESTQ   CX, CX
	JZ      gtepi

gtloop:
	LOADB
	WIDEPAIR((SI), Y0, Y1)
	WIDEPAIR((SI)(R8*1), Y2, Y3)
	WIDEPAIR((SI)(R8*2), Y4, Y5)
	WIDEPAIR((SI)(R9*1), Y6, Y7)
	ADDQ $4, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  gtloop

gtepi:
	EPIBASES(AX, BX)
	EPIREQ(Y0, 0)
	EPIREQ(Y1, 32)
	EPIREQ(Y2, 0)
	EPIREQ(Y3, 32)
	EPIREQ(Y4, 0)
	EPIREQ(Y5, 32)
	EPIREQ(Y6, 0)
	EPIREQ(Y7, 32)
	VMOVDQU packperm<>(SB), Y8
	PACK2(Y0, Y1, Y2, Y3)
	PACK2(Y4, Y5, Y6, Y7)
	VPMAXSB Y13, Y0, Y0
	VPMINSB Y12, Y0, Y0
	VPMAXSB Y13, Y4, Y4
	VPMINSB Y12, Y4, Y4
	MOVQ    out+48(FP), SI
	ADDQ    BX, SI
	MOVQ    n+56(FP), CX
	CMPQ    DX, $16
	JLT     gtpart
	CMPQ    rows+8(FP), $4
	JLT     gtpart
	VMOVDQU X0, (SI)
	VEXTRACTI128 $1, Y0, (SI)(CX*1)
	VMOVDQU X4, (SI)(CX*2)
	LEAQ    (SI)(CX*2), SI
	VEXTRACTI128 $1, Y4, (SI)(CX*1)
	JMP     gtnext

gtpart:
	VMOVDQU Y0, (SP)
	VMOVDQU Y4, 32(SP)
	MOVQ    $16, R10
	JMP     gtcopy

gthalf:
	VMOVDQU (R10)(BX*4), Y0
	VMOVDQA Y0, Y2
	VMOVDQA Y0, Y4
	VMOVDQA Y0, Y6
	TESTQ   CX, CX
	JZ      gthepi

gthloop:
	VPMOVSXBW (DI), Y8
	HALFPAIR((SI), Y0)
	HALFPAIR((SI)(R8*1), Y2)
	HALFPAIR((SI)(R8*2), Y4)
	HALFPAIR((SI)(R9*1), Y6)
	ADDQ $4, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  gthloop

gthepi:
	EPIBASES(AX, BX)
	EPIREQ(Y0, 0)
	EPIREQ(Y2, 0)
	EPIREQ(Y4, 0)
	EPIREQ(Y6, 0)
	VMOVDQU   packperm<>(SB), Y8
	VPACKSSDW Y2, Y0, Y0
	VPACKSSDW Y6, Y4, Y4
	VPACKSSWB Y4, Y0, Y0
	VPERMD    Y0, Y8, Y0
	VPMAXSB   Y13, Y0, Y0
	VPMINSB   Y12, Y0, Y0
	MOVQ      out+48(FP), SI
	ADDQ      BX, SI
	MOVQ      n+56(FP), CX
	CMPQ      DX, $8
	JLT       gthpart
	CMPQ      rows+8(FP), $4
	JLT       gthpart
	VMOVQ     X0, (SI)
	VPEXTRQ   $1, X0, (SI)(CX*1)
	VEXTRACTI128 $1, Y0, X1
	VMOVQ     X1, (SI)(CX*2)
	LEAQ      (SI)(CX*2), SI
	VPEXTRQ   $1, X1, (SI)(CX*1)
	JMP       gtnext

gtone:
	VMOVDQU (R10)(BX*4), Y0
	VMOVDQU 32(R10)(BX*4), Y1
	TESTQ   CX, CX
	JZ      gtoepi

gtoloop:
	LOADB
	WIDEPAIR((SI), Y0, Y1)
	ADDQ $4, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  gtoloop

gtoepi:
	EPIBASES(AX, BX)
	EPIREQ(Y0, 0)
	EPIREQ(Y1, 32)
	NARROW16(Y0, Y1, X0, X1)
	MOVQ    out+48(FP), SI
	ADDQ    BX, SI
	MOVQ    n+56(FP), CX
	CMPQ    DX, $16
	JLT     gtopart
	VMOVDQU X0, (SI)
	JMP     gtnext

gtopart:
	VMOVDQU X0, (SP)
	MOVQ    $16, R10
	JMP     gtcopy

gthpart:
	VMOVDQU Y0, (SP)
	MOVQ    $8, R10

gtcopy:
	// min(DX, 16) columns of min(rows, 4) rows, from the frame (row
	// stride R10) to SI (row stride n in CX).
	MOVQ    $16, R9
	CMPQ    DX, R9
	CMOVQGT R9, DX
	MOVQ    rows+8(FP), R11
	MOVQ    $4, R9
	CMPQ    R11, R9
	CMOVQGT R9, R11
	LEAQ    (SP), R12

gtcrow:
	XORQ R13, R13

gtcbyte:
	MOVBLZX (R12)(R13*1), R9
	MOVB    R9, (SI)(R13*1)
	INCQ    R13
	CMPQ    R13, DX
	JLT     gtcbyte
	ADDQ    R10, R12
	ADDQ    CX, SI
	DECQ    R11
	JNZ     gtcrow

gtnext:
	ADDQ $16, BX
	CMPQ BX, n+56(FP)
	JLT  gtpanel
	MOVQ k+16(FP), CX
	SHLQ $2, CX
	ADDQ CX, a+0(FP)
	MOVQ n+56(FP), CX
	SHLQ $2, CX
	ADDQ CX, out+48(FP)
	SUBQ $4, rows+8(FP)
	JG   gtblock
	VZEROUPPER
	RET

// func gemm1x16(a *int8, k int, b *int8, e *epilogue, col int, out *int8, nc int)
//
// The one-row kernel (Dense): out[c] = requant(bias[col+c] + sum_k
// a[k]*B[k][c]) for the nc live columns c of one panel, nc in [1, 16];
// a panel of fewer goes through the frame and a byte loop.
TEXT ·gemm1x16(SB), NOSPLIT, $16-56
	MOVQ    a+0(FP), SI
	MOVQ    k+8(FP), CX
	MOVQ    b+16(FP), DI
	MOVQ    e+24(FP), AX
	MOVQ    col+32(FP), BX
	MOVQ    E_BIAS(AX), R10
	VMOVDQU (R10)(BX*4), Y0
	VMOVDQU 32(R10)(BX*4), Y1
	MOVQ    CX, DX
	SHRQ    $1, CX
	JZ      tail1

loop1:
	LOADB
	ROWPAIR((SI), Y0, Y1)
	ADDQ $2, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop1

tail1:
	TESTQ $1, DX
	JZ    epi1
	LOADB
	ROWLAST((SI), Y0, Y1)

epi1:
	LOADCONST(AX)
	EPIBASES(AX, BX)
	EPIREQ(Y0, 0)
	EPIREQ(Y1, 32)
	NARROW16(Y0, Y1, X0, X1)
	MOVQ    out+40(FP), DI
	MOVQ    nc+48(FP), CX
	CMPQ    CX, $16
	JLT     part1
	VMOVDQU X0, (DI)
	VZEROUPPER
	RET

part1:
	VMOVDQU X0, (SP)
	LEAQ    (SP), SI
	XORQ    DX, DX

p1byte:
	MOVBLZX (SI)(DX*1), R9
	MOVB    R9, (DI)(DX*1)
	INCQ    DX
	CMPQ    DX, CX
	JLT     p1byte
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

// DWPAIR2 and DWLAST2 are DWPAIR and DWLAST for two pixels at once: the
// second pixel's rows (at R11, one step on) go through Y4-Y7 into Y2 and
// Y3 beside the first's. Two independent chains per group keep the
// requantize of one pixel from waiting on the taps of the other.
#define DWPAIR2(t0, t1, off) \
	MOVQ (t0*8)(AX), SI; \
	VPMOVSXBW (SI)(DX*1), Y8; \
	VPMOVSXBW (SI)(R11*1), Y4; \
	MOVQ (t1*8)(AX), SI; \
	VPMOVSXBW (SI)(DX*1), Y9; \
	VPMOVSXBW (SI)(R11*1), Y5; \
	DWMADD(Y9, off); \
	DWMADD2(Y5, off)

#define DWLAST2(off) \
	MOVQ (8*8)(AX), SI; \
	VPMOVSXBW (SI)(DX*1), Y8; \
	VPMOVSXBW (SI)(R11*1), Y4; \
	DWMADD(Y8, off); \
	DWMADD2(Y4, off)

// DWMADD2 is DWMADD for the second pixel: Y4 with its second row, into
// Y2 and Y3.
#define DWMADD2(second, off) \
	VPUNPCKLWD second, Y4, Y6; \
	VPUNPCKHWD second, Y4, Y7; \
	VPMADDWD off(BX), Y6, Y6; \
	VPMADDWD (off+32)(BX), Y7, Y7; \
	VPADDD Y6, Y2, Y2; \
	VPADDD Y7, Y3, Y3

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
// With sixteen-channel groups the pixels go two at a time (dw2group,
// the second one step on, R11 its tap offset) while two are left, then
// one (dwgroup); R10 is the pixel's tap offset, saved in DX across the
// requantize, which needs R10-R13.
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
	CMPQ R8, $2
	JLT  dwone
	XORQ R9, R9
	MOVQ w+8(FP), BX

dw2group:
	LEAQ (R10)(R9*1), DX
	MOVQ step+56(FP), R11
	ADDQ DX, R11
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	DWPAIR2(0, 1, 0)
	DWPAIR2(2, 3, 64)
	DWPAIR2(4, 5, 128)
	DWPAIR2(6, 7, 192)
	DWLAST2(256)
	VPERM2I128 $0x20, Y1, Y0, Y4
	VPERM2I128 $0x31, Y1, Y0, Y5
	VPERM2I128 $0x20, Y3, Y2, Y6
	VPERM2I128 $0x31, Y3, Y2, Y7
	MOVQ base+24(FP), R13
	LEAQ (R13)(R9*4), R13
	VPADDD (R13), Y4, Y4
	VPADDD 32(R13), Y5, Y5
	VPADDD (R13), Y6, Y6
	VPADDD 32(R13), Y7, Y7
	MOVQ R10, DX
	MOVQ e+32(FP), SI
	EPIBASES(SI, R9)
	EPIREQ(Y4, 0)
	EPIREQ(Y6, 0)
	EPIREQ(Y5, 32)
	EPIREQ(Y7, 32)
	MOVQ DX, R10
	VMOVDQU packperm<>(SB), Y8
	PACK2(Y4, Y5, Y6, Y7)
	VPMAXSB Y13, Y4, Y4
	VPMINSB Y12, Y4, Y4
	VMOVDQU X4, (DI)(R9*1)
	LEAQ (DI)(CX*1), SI
	VEXTRACTI128 $1, Y4, (SI)(R9*1)
	ADDQ $320, BX
	ADDQ $16, R9
	CMPQ R9, CX
	JGE  dw2next
	LEAQ 16(R9), R13
	CMPQ R13, CX
	JLE  dw2group
	LEAQ -16(CX), R9
	JMP  dw2group

dw2next:
	ADDQ step+56(FP), R10
	ADDQ step+56(FP), R10
	LEAQ (DI)(CX*2), DI
	SUBQ $2, R8
	JNZ  dwpixel
	VZEROUPPER
	RET

dwone:
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
	LEAQ (R13)(R9*4), R13
	VPADDD (R13), Y2, Y2
	VPADDD 32(R13), Y3, Y3
	MOVQ R10, DX
	MOVQ e+32(FP), SI
	EPIBASES(SI, R9)
	EPIREQ(Y2, 0)
	EPIREQ(Y3, 32)
	MOVQ DX, R10
	NARROW16(Y2, Y3, X2, X3)
	VMOVDQU X2, (DI)(R9*1)
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
	LEAQ (R13)(R9*4), R13
	VPADDD (R13), Y2, Y2
	MOVQ R10, DX
	MOVQ e+32(FP), SI
	EPIBASES(SI, R9)
	EPIREQ(Y2, 0)
	MOVQ DX, R10
	NARROW8(Y2, X2, X3)
	VMOVQ X2, (DI)(R9*1)
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

// func addVec(a, b *int8, n int, p *addParams, out *int8)
//
// TFLM's int8 ADD over n elements, n a positive multiple of eight: per
// eight lanes each input is sign-extended, less its zero point, shifted
// left 20 bits and rescaled (SRDHM, RDPOT) by its own multiplier; the
// sum is rescaled by the output's (REQUANT) and NARROW8ed. The three
// multipliers and right shifts stay broadcast in Y2-Y7; the rounding
// masks and half-masks are read as eight-lane vectors from addParams.
TEXT ·addVec(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ p+24(FP), AX
	MOVQ out+32(FP), DX
	VPBROADCASTD A_M0(AX), Y2
	VPBROADCASTD A_M0+4(AX), Y3
	VPBROADCASTD A_M0+8(AX), Y4
	VPBROADCASTD A_RSHIFT(AX), Y5
	VPBROADCASTD A_RSHIFT+4(AX), Y6
	VPBROADCASTD A_RSHIFT+8(AX), Y7
	VPBROADCASTB A_HI(AX), Y12
	VPBROADCASTB A_LO(AX), Y13
	VPBROADCASTD A_OUTZP(AX), Y14
	VPBROADCASTQ round30<>(SB), Y15
	SHRQ $3, CX

addloop:
	VPMOVSXBD (SI), Y0
	VPMOVSXBD (DI), Y1
	VPBROADCASTD A_AZP(AX), Y8
	VPSUBD Y8, Y0, Y0
	VPBROADCASTD A_BZP(AX), Y8
	VPSUBD Y8, Y1, Y1
	VPSLLD $20, Y0, Y0
	VPSLLD $20, Y1, Y1
	SRDHM(Y0, Y2, Y2)
	RDPOT(Y0, Y5, A_RMASK(AX), A_RHALF(AX))
	SRDHM(Y1, Y3, Y3)
	RDPOT(Y1, Y6, A_RMASK+32(AX), A_RHALF+32(AX))
	VPADDD Y1, Y0, Y0
	REQUANT(Y0, Y4, Y4, Y7, A_RMASK+64(AX), A_RHALF+64(AX))
	NARROW8(Y0, X0, X1)
	VMOVQ X0, (DX)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JNZ  addloop
	VZEROUPPER
	RET
