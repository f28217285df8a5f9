package kernels

import (
	"micronets/internal/graph"
)

// The Default engine's microkernels: a 4×4 (gemmMR×gemmNR) accumulator
// block over the packed-panel layout of gemm.go, with the reduction loop
// unrolled 16 deep. The explicit 16-element reslices give the compiler
// constant-length slices, so every load in the unrolled body is
// bounds-check-free — that, plus the few loop branches, is where the
// speed comes from. int32 accumulation wraps identically in any order,
// so outputs stay bit-exact with Reference (the fuzz parity targets
// enforce it).

// gemmStoreRowsWide multiplies rows [0, rows) of the im2col tile a
// (k-major, stride k) against every packed panel and requantizes straight
// into out[(m0+row)*n+col].
func gemmStoreRowsWide(a []int8, rows, k int, ctx *Ctx, op *graph.Op, out []int8, m0, n int, outZp int32) {
	panels := (n + gemmNR - 1) / gemmNR
	var i int
	for i = 0; i+gemmMR <= rows; i += gemmMR {
		a0 := a[(i+0)*k : (i+0)*k+k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k : (i+3)*k+k]
		for j := 0; j < panels; j++ {
			bp := ctx.PackedW[j*k*gemmNR : j*k*gemmNR+k*gemmNR : j*k*gemmNR+k*gemmNR]
			var c00, c01, c02, c03 int32
			var c10, c11, c12, c13 int32
			var c20, c21, c22, c23 int32
			var c30, c31, c32, c33 int32
			o := 0
			kk := 0
			for ; kk+16 <= k; kk, o = kk+16, o+16*gemmNR {
				bb := bp[o : o+16*gemmNR : o+16*gemmNR]
				x0 := a0[kk : kk+16 : kk+16]
				x1 := a1[kk : kk+16 : kk+16]
				x2 := a2[kk : kk+16 : kk+16]
				x3 := a3[kk : kk+16 : kk+16]
				b0, b1, b2, b3 := int32(bb[0]), int32(bb[1]), int32(bb[2]), int32(bb[3])
				d0, d1, d2, d3 := int32(bb[4]), int32(bb[5]), int32(bb[6]), int32(bb[7])
				va, vb := int32(x0[0]), int32(x0[1])
				c00 += va*b0 + vb*d0
				c01 += va*b1 + vb*d1
				c02 += va*b2 + vb*d2
				c03 += va*b3 + vb*d3
				va, vb = int32(x1[0]), int32(x1[1])
				c10 += va*b0 + vb*d0
				c11 += va*b1 + vb*d1
				c12 += va*b2 + vb*d2
				c13 += va*b3 + vb*d3
				va, vb = int32(x2[0]), int32(x2[1])
				c20 += va*b0 + vb*d0
				c21 += va*b1 + vb*d1
				c22 += va*b2 + vb*d2
				c23 += va*b3 + vb*d3
				va, vb = int32(x3[0]), int32(x3[1])
				c30 += va*b0 + vb*d0
				c31 += va*b1 + vb*d1
				c32 += va*b2 + vb*d2
				c33 += va*b3 + vb*d3
				b0, b1, b2, b3 = int32(bb[8]), int32(bb[9]), int32(bb[10]), int32(bb[11])
				d0, d1, d2, d3 = int32(bb[12]), int32(bb[13]), int32(bb[14]), int32(bb[15])
				va, vb = int32(x0[2]), int32(x0[3])
				c00 += va*b0 + vb*d0
				c01 += va*b1 + vb*d1
				c02 += va*b2 + vb*d2
				c03 += va*b3 + vb*d3
				va, vb = int32(x1[2]), int32(x1[3])
				c10 += va*b0 + vb*d0
				c11 += va*b1 + vb*d1
				c12 += va*b2 + vb*d2
				c13 += va*b3 + vb*d3
				va, vb = int32(x2[2]), int32(x2[3])
				c20 += va*b0 + vb*d0
				c21 += va*b1 + vb*d1
				c22 += va*b2 + vb*d2
				c23 += va*b3 + vb*d3
				va, vb = int32(x3[2]), int32(x3[3])
				c30 += va*b0 + vb*d0
				c31 += va*b1 + vb*d1
				c32 += va*b2 + vb*d2
				c33 += va*b3 + vb*d3
				b0, b1, b2, b3 = int32(bb[16]), int32(bb[17]), int32(bb[18]), int32(bb[19])
				d0, d1, d2, d3 = int32(bb[20]), int32(bb[21]), int32(bb[22]), int32(bb[23])
				va, vb = int32(x0[4]), int32(x0[5])
				c00 += va*b0 + vb*d0
				c01 += va*b1 + vb*d1
				c02 += va*b2 + vb*d2
				c03 += va*b3 + vb*d3
				va, vb = int32(x1[4]), int32(x1[5])
				c10 += va*b0 + vb*d0
				c11 += va*b1 + vb*d1
				c12 += va*b2 + vb*d2
				c13 += va*b3 + vb*d3
				va, vb = int32(x2[4]), int32(x2[5])
				c20 += va*b0 + vb*d0
				c21 += va*b1 + vb*d1
				c22 += va*b2 + vb*d2
				c23 += va*b3 + vb*d3
				va, vb = int32(x3[4]), int32(x3[5])
				c30 += va*b0 + vb*d0
				c31 += va*b1 + vb*d1
				c32 += va*b2 + vb*d2
				c33 += va*b3 + vb*d3
				b0, b1, b2, b3 = int32(bb[24]), int32(bb[25]), int32(bb[26]), int32(bb[27])
				d0, d1, d2, d3 = int32(bb[28]), int32(bb[29]), int32(bb[30]), int32(bb[31])
				va, vb = int32(x0[6]), int32(x0[7])
				c00 += va*b0 + vb*d0
				c01 += va*b1 + vb*d1
				c02 += va*b2 + vb*d2
				c03 += va*b3 + vb*d3
				va, vb = int32(x1[6]), int32(x1[7])
				c10 += va*b0 + vb*d0
				c11 += va*b1 + vb*d1
				c12 += va*b2 + vb*d2
				c13 += va*b3 + vb*d3
				va, vb = int32(x2[6]), int32(x2[7])
				c20 += va*b0 + vb*d0
				c21 += va*b1 + vb*d1
				c22 += va*b2 + vb*d2
				c23 += va*b3 + vb*d3
				va, vb = int32(x3[6]), int32(x3[7])
				c30 += va*b0 + vb*d0
				c31 += va*b1 + vb*d1
				c32 += va*b2 + vb*d2
				c33 += va*b3 + vb*d3
				b0, b1, b2, b3 = int32(bb[32]), int32(bb[33]), int32(bb[34]), int32(bb[35])
				d0, d1, d2, d3 = int32(bb[36]), int32(bb[37]), int32(bb[38]), int32(bb[39])
				va, vb = int32(x0[8]), int32(x0[9])
				c00 += va*b0 + vb*d0
				c01 += va*b1 + vb*d1
				c02 += va*b2 + vb*d2
				c03 += va*b3 + vb*d3
				va, vb = int32(x1[8]), int32(x1[9])
				c10 += va*b0 + vb*d0
				c11 += va*b1 + vb*d1
				c12 += va*b2 + vb*d2
				c13 += va*b3 + vb*d3
				va, vb = int32(x2[8]), int32(x2[9])
				c20 += va*b0 + vb*d0
				c21 += va*b1 + vb*d1
				c22 += va*b2 + vb*d2
				c23 += va*b3 + vb*d3
				va, vb = int32(x3[8]), int32(x3[9])
				c30 += va*b0 + vb*d0
				c31 += va*b1 + vb*d1
				c32 += va*b2 + vb*d2
				c33 += va*b3 + vb*d3
				b0, b1, b2, b3 = int32(bb[40]), int32(bb[41]), int32(bb[42]), int32(bb[43])
				d0, d1, d2, d3 = int32(bb[44]), int32(bb[45]), int32(bb[46]), int32(bb[47])
				va, vb = int32(x0[10]), int32(x0[11])
				c00 += va*b0 + vb*d0
				c01 += va*b1 + vb*d1
				c02 += va*b2 + vb*d2
				c03 += va*b3 + vb*d3
				va, vb = int32(x1[10]), int32(x1[11])
				c10 += va*b0 + vb*d0
				c11 += va*b1 + vb*d1
				c12 += va*b2 + vb*d2
				c13 += va*b3 + vb*d3
				va, vb = int32(x2[10]), int32(x2[11])
				c20 += va*b0 + vb*d0
				c21 += va*b1 + vb*d1
				c22 += va*b2 + vb*d2
				c23 += va*b3 + vb*d3
				va, vb = int32(x3[10]), int32(x3[11])
				c30 += va*b0 + vb*d0
				c31 += va*b1 + vb*d1
				c32 += va*b2 + vb*d2
				c33 += va*b3 + vb*d3
				b0, b1, b2, b3 = int32(bb[48]), int32(bb[49]), int32(bb[50]), int32(bb[51])
				d0, d1, d2, d3 = int32(bb[52]), int32(bb[53]), int32(bb[54]), int32(bb[55])
				va, vb = int32(x0[12]), int32(x0[13])
				c00 += va*b0 + vb*d0
				c01 += va*b1 + vb*d1
				c02 += va*b2 + vb*d2
				c03 += va*b3 + vb*d3
				va, vb = int32(x1[12]), int32(x1[13])
				c10 += va*b0 + vb*d0
				c11 += va*b1 + vb*d1
				c12 += va*b2 + vb*d2
				c13 += va*b3 + vb*d3
				va, vb = int32(x2[12]), int32(x2[13])
				c20 += va*b0 + vb*d0
				c21 += va*b1 + vb*d1
				c22 += va*b2 + vb*d2
				c23 += va*b3 + vb*d3
				va, vb = int32(x3[12]), int32(x3[13])
				c30 += va*b0 + vb*d0
				c31 += va*b1 + vb*d1
				c32 += va*b2 + vb*d2
				c33 += va*b3 + vb*d3
				b0, b1, b2, b3 = int32(bb[56]), int32(bb[57]), int32(bb[58]), int32(bb[59])
				d0, d1, d2, d3 = int32(bb[60]), int32(bb[61]), int32(bb[62]), int32(bb[63])
				va, vb = int32(x0[14]), int32(x0[15])
				c00 += va*b0 + vb*d0
				c01 += va*b1 + vb*d1
				c02 += va*b2 + vb*d2
				c03 += va*b3 + vb*d3
				va, vb = int32(x1[14]), int32(x1[15])
				c10 += va*b0 + vb*d0
				c11 += va*b1 + vb*d1
				c12 += va*b2 + vb*d2
				c13 += va*b3 + vb*d3
				va, vb = int32(x2[14]), int32(x2[15])
				c20 += va*b0 + vb*d0
				c21 += va*b1 + vb*d1
				c22 += va*b2 + vb*d2
				c23 += va*b3 + vb*d3
				va, vb = int32(x3[14]), int32(x3[15])
				c30 += va*b0 + vb*d0
				c31 += va*b1 + vb*d1
				c32 += va*b2 + vb*d2
				c33 += va*b3 + vb*d3
			}
			for ; kk < k; kk++ {
				b0, b1, b2, b3 := int32(bp[o]), int32(bp[o+1]), int32(bp[o+2]), int32(bp[o+3])
				o += gemmNR
				va := int32(a0[kk])
				c00 += va * b0
				c01 += va * b1
				c02 += va * b2
				c03 += va * b3
				va = int32(a1[kk])
				c10 += va * b0
				c11 += va * b1
				c12 += va * b2
				c13 += va * b3
				va = int32(a2[kk])
				c20 += va * b0
				c21 += va * b1
				c22 += va * b2
				c23 += va * b3
				va = int32(a3[kk])
				c30 += va * b0
				c31 += va * b1
				c32 += va * b2
				c33 += va * b3
			}
			accs := [gemmMR][gemmNR]int32{
				{c00, c01, c02, c03},
				{c10, c11, c12, c13},
				{c20, c21, c22, c23},
				{c30, c31, c32, c33},
			}
			for r := 0; r < gemmMR; r++ {
				outRow := out[(m0+i+r)*n : (m0+i+r)*n+n]
				for cc := 0; cc < gemmNR; cc++ {
					col := j*gemmNR + cc
					if col >= n {
						break
					}
					acc := accs[r][cc] + ctx.ZpBias[col]
					v := ctx.Mults[col].Apply(acc) + outZp
					outRow[col] = int8(clamp32(v, op.ClampMin, op.ClampMax))
				}
			}
		}
	}
	gemmStoreTailRows(a, i, rows, k, ctx, op, out, m0, n, outZp)
}

// gemmDensePanelsWide computes dense output panels [lo, hi).
func gemmDensePanelsWide(ctx *Ctx, op *graph.Op, in, out []int8, n, k int, outZp int32, lo, hi int) {
	for j := lo; j < hi; j++ {
		bp := ctx.PackedW[j*k*gemmNR : j*k*gemmNR+k*gemmNR : j*k*gemmNR+k*gemmNR]
		var c0, c1, c2, c3 int32
		o := 0
		kk := 0
		for ; kk+16 <= k; kk, o = kk+16, o+16*gemmNR {
			bb := bp[o : o+16*gemmNR : o+16*gemmNR]
			xv := in[kk : kk+16 : kk+16]
			va := int32(xv[0])
			c0 += va * int32(bb[0])
			c1 += va * int32(bb[1])
			c2 += va * int32(bb[2])
			c3 += va * int32(bb[3])
			va = int32(xv[1])
			c0 += va * int32(bb[4])
			c1 += va * int32(bb[5])
			c2 += va * int32(bb[6])
			c3 += va * int32(bb[7])
			va = int32(xv[2])
			c0 += va * int32(bb[8])
			c1 += va * int32(bb[9])
			c2 += va * int32(bb[10])
			c3 += va * int32(bb[11])
			va = int32(xv[3])
			c0 += va * int32(bb[12])
			c1 += va * int32(bb[13])
			c2 += va * int32(bb[14])
			c3 += va * int32(bb[15])
			va = int32(xv[4])
			c0 += va * int32(bb[16])
			c1 += va * int32(bb[17])
			c2 += va * int32(bb[18])
			c3 += va * int32(bb[19])
			va = int32(xv[5])
			c0 += va * int32(bb[20])
			c1 += va * int32(bb[21])
			c2 += va * int32(bb[22])
			c3 += va * int32(bb[23])
			va = int32(xv[6])
			c0 += va * int32(bb[24])
			c1 += va * int32(bb[25])
			c2 += va * int32(bb[26])
			c3 += va * int32(bb[27])
			va = int32(xv[7])
			c0 += va * int32(bb[28])
			c1 += va * int32(bb[29])
			c2 += va * int32(bb[30])
			c3 += va * int32(bb[31])
			va = int32(xv[8])
			c0 += va * int32(bb[32])
			c1 += va * int32(bb[33])
			c2 += va * int32(bb[34])
			c3 += va * int32(bb[35])
			va = int32(xv[9])
			c0 += va * int32(bb[36])
			c1 += va * int32(bb[37])
			c2 += va * int32(bb[38])
			c3 += va * int32(bb[39])
			va = int32(xv[10])
			c0 += va * int32(bb[40])
			c1 += va * int32(bb[41])
			c2 += va * int32(bb[42])
			c3 += va * int32(bb[43])
			va = int32(xv[11])
			c0 += va * int32(bb[44])
			c1 += va * int32(bb[45])
			c2 += va * int32(bb[46])
			c3 += va * int32(bb[47])
			va = int32(xv[12])
			c0 += va * int32(bb[48])
			c1 += va * int32(bb[49])
			c2 += va * int32(bb[50])
			c3 += va * int32(bb[51])
			va = int32(xv[13])
			c0 += va * int32(bb[52])
			c1 += va * int32(bb[53])
			c2 += va * int32(bb[54])
			c3 += va * int32(bb[55])
			va = int32(xv[14])
			c0 += va * int32(bb[56])
			c1 += va * int32(bb[57])
			c2 += va * int32(bb[58])
			c3 += va * int32(bb[59])
			va = int32(xv[15])
			c0 += va * int32(bb[60])
			c1 += va * int32(bb[61])
			c2 += va * int32(bb[62])
			c3 += va * int32(bb[63])
		}
		for ; kk < k; kk++ {
			va := int32(in[kk])
			c0 += va * int32(bp[o])
			c1 += va * int32(bp[o+1])
			c2 += va * int32(bp[o+2])
			c3 += va * int32(bp[o+3])
			o += gemmNR
		}
		for cc, acc := range [gemmNR]int32{c0, c1, c2, c3} {
			col := j*gemmNR + cc
			if col >= n {
				break
			}
			acc += ctx.ZpBias[col]
			v := ctx.Mults[col].Apply(acc) + outZp
			out[col] = int8(clamp32(v, op.ClampMin, op.ClampMax))
		}
	}
}
