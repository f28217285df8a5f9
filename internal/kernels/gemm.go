package kernels

import (
	"micronets/internal/graph"
)

// The Default engine lowers Conv2D to C[M×N] = A[M×K] · B[K×N] where
// M = outH*outW output pixels, K = kh*kw*inC patch elements and
// N = outC: A is built by im2col into a per-worker scratch tile, B is the
// op's weights pre-packed at PrepareConv time into nr-wide column panels,
// and the product runs as a register-tiled (mr×nr accumulator block)
// int8×int8→int32 kernel parallelized across output-pixel tiles. The
// input zero point is folded into the bias ahead of time
// (zpBias[oc] = bias[oc] − inZp·Σₖ w[k][oc], im2col pads with inZp), so
// the inner loop is a pure int8 dot product yet remains bit-exact with
// the Reference engine: int32 addition wraps identically in any order.
//
// The microkernels (gemmStoreRowsWide, gemmDensePanelsWide) live in
// gemm_wide.go; this file holds the packing, the orchestration, and the
// non-GEMM ops.

const (
	// gemmTileM is the number of output pixels im2col'd per scratch tile.
	gemmTileM = 64
	// gemmMR×gemmNR is the register accumulator block: 4 output pixels ×
	// 4 output channels per inner loop, amortizing each packed-B load
	// over four A rows.
	gemmMR = 4
	gemmNR = 4
)

// convIsPointwise reports whether the conv is a 1×1/stride-1/no-pad
// convolution, for which the NHWC input is already the im2col matrix.
func convIsPointwise(op *graph.Op) bool {
	return op.KH == 1 && op.KW == 1 && op.SH == 1 && op.SW == 1 &&
		op.PadTop == 0 && op.PadLeft == 0 && op.PadBottom == 0 && op.PadRight == 0
}

// convK returns the GEMM K dimension (im2col patch length) of a conv op.
func convK(m *graph.Model, op *graph.Op) int {
	return op.KH * op.KW * m.Tensors[op.Inputs[0]].C
}

// ScratchBytes returns the im2col scratch the default engine needs for a
// model — the number the tflm memory planner accounts for.
func ScratchBytes(m *graph.Model) int {
	return Default.ScratchBytes(m)
}

// ScratchBytes returns the Default engine's im2col requirement: Workers()
// concurrent tiles of gemmTileM patches, sized for the largest
// non-pointwise convolution. The tflm memory planner places this region
// after the activation arena so host-side memory accounting stays
// honest; it is zero for models whose convs are all pointwise.
func (gemmEngine) ScratchBytes(m *graph.Model) int {
	maxK := 0
	for _, op := range m.Ops {
		if op.Kind != graph.OpConv2D || convIsPointwise(op) {
			continue
		}
		if k := convK(m, op); k > maxK {
			maxK = k
		}
	}
	return Workers() * gemmTileM * maxK
}

// packWeights repacks a row-major K×N weight matrix into gemmNR-wide
// column panels: panel j holds columns [j*nr, j*nr+nr) laid out k-major,
// zero-padded past N, so the micro-kernel streams B with unit stride.
func packWeights(w []int8, k, n int) []int8 {
	panels := (n + gemmNR - 1) / gemmNR
	packed := make([]int8, panels*k*gemmNR)
	for j := 0; j < panels; j++ {
		base := j * k * gemmNR
		for kk := 0; kk < k; kk++ {
			for r := 0; r < gemmNR; r++ {
				if col := j*gemmNR + r; col < n {
					packed[base+kk*gemmNR+r] = w[kk*n+col]
				}
			}
		}
	}
	return packed
}

// dwWeightPrefix builds the 2-D prefix sum over the [kh][kw][c] depthwise
// weights used to fold the input zero point out of the tap loop.
func dwWeightPrefix(op *graph.Op, c int) []int32 {
	kh1, kw1 := op.KH+1, op.KW+1
	p := make([]int32, kh1*kw1*c)
	for ky := 1; ky < kh1; ky++ {
		for kx := 1; kx < kw1; kx++ {
			dst := p[(ky*kw1+kx)*c:]
			up := p[((ky-1)*kw1+kx)*c:]
			left := p[(ky*kw1+kx-1)*c:]
			diag := p[((ky-1)*kw1+kx-1)*c:]
			wv := op.Weights[((ky-1)*op.KW+kx-1)*c:]
			for ch := 0; ch < c; ch++ {
				dst[ch] = up[ch] + left[ch] - diag[ch] + int32(wv[ch])
			}
		}
	}
	return p
}

// foldZeroPoint returns bias[oc] − inZp·Σₖ w[k][oc] for a row-major K×N
// weight matrix, the bias the pure-int8 GEMM accumulates on top of.
func foldZeroPoint(w []int8, k, n int, bias []int32, inZp int32) []int32 {
	folded := make([]int32, n)
	for col := 0; col < n; col++ {
		var sum int32
		for kk := 0; kk < k; kk++ {
			sum += int32(w[kk*n+col])
		}
		folded[col] = bias[col] - inZp*sum
	}
	return folded
}

// im2colTile gathers output pixels [m0, m1) into tile, one K-length patch
// per row in (ky, kx, ic) order — the same order the weights use. Padding
// positions are filled with the input zero point, which the folded bias
// cancels exactly.
func im2colTile(op *graph.Op, in []int8, h, w, inC int, ow, k, m0, m1 int, pad int8, tile []int8) {
	rowBytes := op.KW * inC
	for mm := m0; mm < m1; mm++ {
		oy, ox := mm/ow, mm%ow
		dst := tile[(mm-m0)*k:]
		for ky := 0; ky < op.KH; ky++ {
			iy := oy*op.SH + ky - op.PadTop
			d := dst[ky*rowBytes : ky*rowBytes+rowBytes]
			if iy < 0 || iy >= h {
				for i := range d {
					d[i] = pad
				}
				continue
			}
			for kx := 0; kx < op.KW; kx++ {
				ix := ox*op.SW + kx - op.PadLeft
				seg := d[kx*inC : kx*inC+inC]
				if ix < 0 || ix >= w {
					for i := range seg {
						seg[i] = pad
					}
					continue
				}
				copy(seg, in[(iy*w+ix)*inC:(iy*w+ix)*inC+inC])
			}
		}
	}
}

// gemmStoreTailRows handles rows [i, rows) one at a time — the remainder
// path of gemmStoreRowsWide when rows is not a multiple of gemmMR.
func gemmStoreTailRows(a []int8, i, rows, k int, ctx *Ctx, op *graph.Op, out []int8, m0, n int, outZp int32) {
	panels := (n + gemmNR - 1) / gemmNR
	for ; i < rows; i++ {
		ar := a[i*k : i*k+k : i*k+k]
		outRow := out[(m0+i)*n : (m0+i)*n+n]
		for j := 0; j < panels; j++ {
			bp := ctx.PackedW[j*k*gemmNR : j*k*gemmNR+k*gemmNR : j*k*gemmNR+k*gemmNR]
			var c0, c1, c2, c3 int32
			o := 0
			for kk := 0; kk < k; kk++ {
				va := int32(ar[kk])
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
				outRow[col] = int8(clamp32(v, op.ClampMin, op.ClampMax))
			}
		}
	}
}

// gemmEngine is the im2col+GEMM engine behind Default.
type gemmEngine struct{}

func (gemmEngine) Name() string { return "gemm16" }

// bindConv2D precomputes the conv orchestration once and returns a
// persistent executor: repeated calls perform zero allocations.
func (gemmEngine) bindConv2D(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, s *Scratch) func() {
	it := m.Tensors[op.Inputs[0]]
	ot := m.Tensors[op.Output]
	h, w, inC := it.H, it.W, it.C
	oh, ow, n := ot.H, ot.W, ot.C
	k := ctx.K
	mTotal := oh * ow
	outZp := ot.ZeroPoint

	if convIsPointwise(op) {
		// The NHWC input is already the M×K im2col matrix.
		fn := func(_, lo, hi int) {
			gemmStoreRowsWide(in[lo*k:], hi-lo, k, ctx, op, out, lo, n, outZp)
		}
		return func() { s.Par.For(mTotal, gemmTileM, fn) }
	}

	perWorker := gemmTileM * k
	tiles := s.Im2col
	pad := int8(it.ZeroPoint)
	nTiles := (mTotal + gemmTileM - 1) / gemmTileM
	fn := func(chunk, lo, hi int) {
		tile := tiles[chunk*perWorker : (chunk+1)*perWorker]
		for t := lo; t < hi; t++ {
			m0 := t * gemmTileM
			m1 := m0 + gemmTileM
			if m1 > mTotal {
				m1 = mTotal
			}
			im2colTile(op, in, h, w, inC, ow, k, m0, m1, pad, tile)
			gemmStoreRowsWide(tile, m1-m0, k, ctx, op, out, m0, n, outZp)
		}
	}
	return func() { s.Par.For(nTiles, 1, fn) }
}

func (gemmEngine) bindDense(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, s *Scratch) func() {
	ot := m.Tensors[op.Output]
	n := ot.C
	k := ctx.K
	outZp := ot.ZeroPoint
	panels := (n + gemmNR - 1) / gemmNR
	fn := func(_, lo, hi int) {
		gemmDensePanelsWide(ctx, op, in, out, n, k, outZp, lo, hi)
	}
	return func() { s.Par.For(panels, 8, fn) }
}

// bindDWConv2D: depthwise has no GEMM form (each channel is its own tiny
// filter); the engine parallelizes output rows, hoists the pad-clipped
// kernel bounds out of the pixel loop, and accumulates channel-inner so
// both the activation and weight reads are unit-stride. Per channel the
// taps still run in (ky, kx) order, so the int32 accumulation matches
// Reference exactly.
func (gemmEngine) bindDWConv2D(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, s *Scratch) func() {
	it := m.Tensors[op.Inputs[0]]
	ot := m.Tensors[op.Output]
	inZp, outZp := it.ZeroPoint, ot.ZeroPoint
	h, w, c := it.H, it.W, it.C
	oh, ow := ot.H, ot.W
	kw1 := op.KW + 1
	pre := ctx.DWSumPrefix
	accAll := s.Acc
	fn := func(chunk, lo, hi int) {
		acc := accAll[chunk*c : (chunk+1)*c : (chunk+1)*c]
		for oy := lo; oy < hi; oy++ {
			ky0, ky1 := clipKernel(oy*op.SH-op.PadTop, op.KH, h)
			for ox := 0; ox < ow; ox++ {
				kx0, kx1 := clipKernel(ox*op.SW-op.PadLeft, op.KW, w)
				// acc[ch] = bias − inZp·Σ_validTaps w: a rectangle query on
				// the weight prefix sum, so the tap loop below is a pure
				// int8 multiply-accumulate. Identical to per-tap
				// (x − zp)·w modulo 2³², hence bit-exact with Reference.
				if inZp == 0 {
					copy(acc, op.Bias)
				} else {
					p11 := pre[(ky1*kw1+kx1)*c : (ky1*kw1+kx1)*c+c : (ky1*kw1+kx1)*c+c]
					p01 := pre[(ky0*kw1+kx1)*c : (ky0*kw1+kx1)*c+c : (ky0*kw1+kx1)*c+c]
					p10 := pre[(ky1*kw1+kx0)*c : (ky1*kw1+kx0)*c+c : (ky1*kw1+kx0)*c+c]
					p00 := pre[(ky0*kw1+kx0)*c : (ky0*kw1+kx0)*c+c : (ky0*kw1+kx0)*c+c]
					for ch := range acc {
						acc[ch] = op.Bias[ch] - inZp*(p11[ch]-p01[ch]-p10[ch]+p00[ch])
					}
				}
				for ky := ky0; ky < ky1; ky++ {
					iy := oy*op.SH + ky - op.PadTop
					inRow := (iy*w + ox*op.SW - op.PadLeft) * c
					wRow := ky * op.KW * c
					for kx := kx0; kx < kx1; kx++ {
						a := in[inRow+kx*c : inRow+kx*c+c : inRow+kx*c+c]
						wv := op.Weights[wRow+kx*c : wRow+kx*c+c : wRow+kx*c+c]
						for ch := range a {
							acc[ch] += int32(a[ch]) * int32(wv[ch])
						}
					}
				}
				outRow := out[(oy*ow+ox)*c : (oy*ow+ox)*c+c : (oy*ow+ox)*c+c]
				for ch := range outRow {
					v := ctx.Mults[ch].Apply(acc[ch]) + outZp
					outRow[ch] = int8(clamp32(v, op.ClampMin, op.ClampMax))
				}
			}
		}
	}
	return func() { s.Par.For(oh, 1, fn) }
}

// clipKernel returns the [k0, k1) kernel tap range whose input positions
// start+k fall inside [0, limit).
func clipKernel(start, kSize, limit int) (int, int) {
	k0, k1 := 0, kSize
	if start < 0 {
		k0 = -start
	}
	if start+k1 > limit {
		k1 = limit - start
	}
	if k1 < k0 {
		k1 = k0
	}
	return k0, k1
}

func (gemmEngine) bindAvgPool(m *graph.Model, op *graph.Op, in, out []int8, s *Scratch) func() {
	oh := m.Tensors[op.Output].H
	fn := func(_, lo, hi int) { avgPoolRows(m, op, in, out, lo, hi) }
	return func() { s.Par.For(oh, 2, fn) }
}

func (gemmEngine) bindMaxPool(m *graph.Model, op *graph.Op, in, out []int8, s *Scratch) func() {
	oh := m.Tensors[op.Output].H
	fn := func(_, lo, hi int) { maxPoolRows(m, op, in, out, lo, hi) }
	return func() { s.Par.For(oh, 2, fn) }
}
