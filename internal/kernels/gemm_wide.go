package kernels

// The Default engine's portable microkernels: a 4×4 (gemmMR×gemmSubNR)
// scalar accumulator block walked four times across each 16-column panel
// of the packed layout, with the reduction loop unrolled 8 deep (four
// k-pairs). They run where the assembly of gemm_amd64.s does not (doc.go).
// The explicit constant-length reslices make every load in the unrolled
// body bounds-check-free — that, plus the few loop branches, is where
// the speed comes from. int32 accumulation wraps identically in any
// order, so outputs stay bit-exact with Reference.

// gemmStoreRowsWide multiplies rows [0, rows) of the im2col tile a
// (k-major, stride k) against every packed panel and requantizes straight
// into out[(m0+row)*n+col].
func gemmStoreRowsWide(a []int8, rows, k int, ctx *Ctx, e *epilogue, out []int8, m0, n int) {
	pairs := k / 2
	panelBytes := panelBytes(k)
	var i int
	for i = 0; i+gemmMR <= rows; i += gemmMR {
		a0 := a[(i+0)*k : (i+0)*k+k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k : (i+3)*k+k]
		for col := 0; col < n; col += gemmSubNR {
			o := col/gemmNR*panelBytes + col%gemmNR*2
			bp := ctx.panels[o : o+panelBytes-col%gemmNR*2 : o+panelBytes-col%gemmNR*2]
			var c00, c01, c02, c03 int32
			var c10, c11, c12, c13 int32
			var c20, c21, c22, c23 int32
			var c30, c31, c32, c33 int32
			o = 0
			p := 0
			for ; p+4 <= pairs; p, o = p+4, o+4*pairStride {
				bb := bp[o : o+3*pairStride+8 : o+3*pairStride+8]
				x0 := a0[2*p : 2*p+8 : 2*p+8]
				x1 := a1[2*p : 2*p+8 : 2*p+8]
				x2 := a2[2*p : 2*p+8 : 2*p+8]
				x3 := a3[2*p : 2*p+8 : 2*p+8]
				b0, b1, b2, b3 := int32(bb[0]), int32(bb[2]), int32(bb[4]), int32(bb[6])
				d0, d1, d2, d3 := int32(bb[1]), int32(bb[3]), int32(bb[5]), int32(bb[7])
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
				b0, b1, b2, b3 = int32(bb[32]), int32(bb[34]), int32(bb[36]), int32(bb[38])
				d0, d1, d2, d3 = int32(bb[33]), int32(bb[35]), int32(bb[37]), int32(bb[39])
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
				b0, b1, b2, b3 = int32(bb[64]), int32(bb[66]), int32(bb[68]), int32(bb[70])
				d0, d1, d2, d3 = int32(bb[65]), int32(bb[67]), int32(bb[69]), int32(bb[71])
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
				b0, b1, b2, b3 = int32(bb[96]), int32(bb[98]), int32(bb[100]), int32(bb[102])
				d0, d1, d2, d3 = int32(bb[97]), int32(bb[99]), int32(bb[101]), int32(bb[103])
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
			}
			for ; p < pairs; p, o = p+1, o+pairStride {
				bb := bp[o : o+8 : o+8]
				b0, b1, b2, b3 := int32(bb[0]), int32(bb[2]), int32(bb[4]), int32(bb[6])
				d0, d1, d2, d3 := int32(bb[1]), int32(bb[3]), int32(bb[5]), int32(bb[7])
				va, vb := int32(a0[2*p]), int32(a0[2*p+1])
				c00 += va*b0 + vb*d0
				c01 += va*b1 + vb*d1
				c02 += va*b2 + vb*d2
				c03 += va*b3 + vb*d3
				va, vb = int32(a1[2*p]), int32(a1[2*p+1])
				c10 += va*b0 + vb*d0
				c11 += va*b1 + vb*d1
				c12 += va*b2 + vb*d2
				c13 += va*b3 + vb*d3
				va, vb = int32(a2[2*p]), int32(a2[2*p+1])
				c20 += va*b0 + vb*d0
				c21 += va*b1 + vb*d1
				c22 += va*b2 + vb*d2
				c23 += va*b3 + vb*d3
				va, vb = int32(a3[2*p]), int32(a3[2*p+1])
				c30 += va*b0 + vb*d0
				c31 += va*b1 + vb*d1
				c32 += va*b2 + vb*d2
				c33 += va*b3 + vb*d3
			}
			if k%2 == 1 {
				// Last element of an odd-length row: the pair's second
				// weight is the packer's zero padding.
				bb := bp[o : o+8 : o+8]
				b0, b1, b2, b3 := int32(bb[0]), int32(bb[2]), int32(bb[4]), int32(bb[6])
				va := int32(a0[k-1])
				c00 += va * b0
				c01 += va * b1
				c02 += va * b2
				c03 += va * b3
				va = int32(a1[k-1])
				c10 += va * b0
				c11 += va * b1
				c12 += va * b2
				c13 += va * b3
				va = int32(a2[k-1])
				c20 += va * b0
				c21 += va * b1
				c22 += va * b2
				c23 += va * b3
				va = int32(a3[k-1])
				c30 += va * b0
				c31 += va * b1
				c32 += va * b2
				c33 += va * b3
			}
			accs := [gemmMR][gemmSubNR]int32{
				{c00, c01, c02, c03},
				{c10, c11, c12, c13},
				{c20, c21, c22, c23},
				{c30, c31, c32, c33},
			}
			for r := 0; r < gemmMR; r++ {
				outRow := out[(m0+i+r)*n : (m0+i+r)*n+n]
				for cc := 0; cc < gemmSubNR && col+cc < n; cc++ {
					outRow[col+cc] = ctx.requant(col+cc, accs[r][cc]+ctx.zpBias[col+cc], e)
				}
			}
		}
	}
	for ; i < rows; i++ {
		gemmDensePanelsWide(ctx, e, a[i*k:i*k+k], out[(m0+i)*n:(m0+i)*n+n], n, k, 0, (n+gemmNR-1)/gemmNR)
	}
}

// gemmDensePanelsWide computes panels [lo, hi) of one output row: a
// Dense layer, or a conv row left over after the 4-row blocks.
func gemmDensePanelsWide(ctx *Ctx, e *epilogue, in, out []int8, n, k, lo, hi int) {
	pairs := k / 2
	panelBytes := panelBytes(k)
	for col := lo * gemmNR; col < hi*gemmNR && col < n; col += gemmSubNR {
		o := col/gemmNR*panelBytes + col%gemmNR*2
		bp := ctx.panels[o : o+panelBytes-col%gemmNR*2 : o+panelBytes-col%gemmNR*2]
		var c0, c1, c2, c3 int32
		o = 0
		p := 0
		for ; p+4 <= pairs; p, o = p+4, o+4*pairStride {
			bb := bp[o : o+3*pairStride+8 : o+3*pairStride+8]
			xv := in[2*p : 2*p+8 : 2*p+8]
			va, vb := int32(xv[0]), int32(xv[1])
			c0 += va*int32(bb[0]) + vb*int32(bb[1])
			c1 += va*int32(bb[2]) + vb*int32(bb[3])
			c2 += va*int32(bb[4]) + vb*int32(bb[5])
			c3 += va*int32(bb[6]) + vb*int32(bb[7])
			va, vb = int32(xv[2]), int32(xv[3])
			c0 += va*int32(bb[32]) + vb*int32(bb[33])
			c1 += va*int32(bb[34]) + vb*int32(bb[35])
			c2 += va*int32(bb[36]) + vb*int32(bb[37])
			c3 += va*int32(bb[38]) + vb*int32(bb[39])
			va, vb = int32(xv[4]), int32(xv[5])
			c0 += va*int32(bb[64]) + vb*int32(bb[65])
			c1 += va*int32(bb[66]) + vb*int32(bb[67])
			c2 += va*int32(bb[68]) + vb*int32(bb[69])
			c3 += va*int32(bb[70]) + vb*int32(bb[71])
			va, vb = int32(xv[6]), int32(xv[7])
			c0 += va*int32(bb[96]) + vb*int32(bb[97])
			c1 += va*int32(bb[98]) + vb*int32(bb[99])
			c2 += va*int32(bb[100]) + vb*int32(bb[101])
			c3 += va*int32(bb[102]) + vb*int32(bb[103])
		}
		for ; p < pairs; p, o = p+1, o+pairStride {
			bb := bp[o : o+8 : o+8]
			va, vb := int32(in[2*p]), int32(in[2*p+1])
			c0 += va*int32(bb[0]) + vb*int32(bb[1])
			c1 += va*int32(bb[2]) + vb*int32(bb[3])
			c2 += va*int32(bb[4]) + vb*int32(bb[5])
			c3 += va*int32(bb[6]) + vb*int32(bb[7])
		}
		if k%2 == 1 {
			bb := bp[o : o+8 : o+8]
			va := int32(in[k-1])
			c0 += va * int32(bb[0])
			c1 += va * int32(bb[2])
			c2 += va * int32(bb[4])
			c3 += va * int32(bb[6])
		}
		for cc, acc := range [gemmSubNR]int32{c0, c1, c2, c3} {
			if col+cc < n {
				out[col+cc] = ctx.requant(col+cc, acc+ctx.zpBias[col+cc], e)
			}
		}
	}
}
