package kernels

import (
	"micronets/internal/graph"
)

// The Default engine lowers Conv2D to C[M×N] = A[M×K] · B[K×N] where
// M = outH*outW output pixels, K = kh*kw*inC patch elements and
// N = outC: A is built by im2col into a per-worker scratch tile, B is the
// op's weights pre-packed at PrepareConv time (packPanels), and the
// product runs as a register-tiled int8×int8→int32 kernel parallelized
// across output-pixel tiles. The input zero point is folded into the
// bias ahead of time (zpBias[oc] = bias[oc] − inZp·Σₖ w[k][oc], im2col
// pads with inZp), so the inner loop is a pure int8 dot product yet
// remains bit-exact with the Reference engine: int32 addition wraps
// identically in any order.
//
// This file holds the packing, the orchestration and the choice between
// the two bodies of the loops (doc.go): the assembly of gemm_amd64.s and
// the portable microkernels of gemm_wide.go.

const (
	// gemmTileM is the number of output pixels im2col'd per scratch tile.
	gemmTileM = 64
	// gemmMR×gemmNR is the assembly's register block, 4 output pixels ×
	// one 16-column panel; the portable body walks a panel as four
	// blocks of gemmMR×gemmSubNR scalar accumulators.
	gemmMR    = 4
	gemmNR    = 16
	gemmSubNR = 4
	// pairStride is the byte distance between consecutive k-pairs of one
	// packed panel.
	pairStride = 2 * gemmNR
)

// Fork-join grain. Handing a chunk to a parked pool worker and joining
// it costs about 10 µs (BenchmarkForkJoin is the warm floor), more when
// the other CPUs are serving other requests. So an op is split only into
// chunks of about ten times that at its body's GEMM rate, and anything
// smaller runs inline on the caller. The portable microkernels run
// ~1.5-2.3 MAC/ns, so 1<<17 MACs is ~60-90 µs. The assembly runs ~48-51
// MAC/ns single-threaded on KWS-L's and AD-L's pointwise convs
// (BenchmarkInvokeOpKinds at -cpu 1 on a 2-vCPU Intel Xeon guest), so
// 3<<20 is ~60 µs: on two workers it splits KWS-L's seven pointwise
// convs and AD-L's three largest and no other zoo op, and KWS-L's ran
// 1.08-1.14 ms per invoke split against 1.14-1.22 ms at -cpu 1, so the
// table gives no reason to move it. A depthwise MAC reuses nothing
// across channels and costs about five GEMM MACs in either body (~10
// against ~50 MAC/ns, ~0.4 against ~2); pools charge their window
// elements the same, which splits none of the zoo's one-row global
// pools.
const (
	forkMACsSIMD   = 3 << 20
	forkMACsScalar = 1 << 17
	dwCost         = 5
)

// grain converts an op's per-iteration work (MACs, or window elements
// for pools) into Parallel.For's minGrain.
func grain(macsPerIter int, simd bool) int {
	chunk := forkMACsScalar
	if simd {
		chunk = forkMACsSIMD
	}
	return (chunk + macsPerIter - 1) / max(macsPerIter, 1)
}

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

// ScratchBytes returns the Default engine's im2col requirement: Workers()
// concurrent tiles of gemmTileM patches, sized for the largest
// non-pointwise convolution. tflm places this region after the planned
// activation arena so host-side memory accounting stays honest; it is
// zero for models whose convs are all pointwise.
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

// panelBytes is the size of one packed panel for reduction length k.
func panelBytes(k int) int { return (k + 1) / 2 * pairStride }

// packPanels repacks a row-major K×N weight matrix into the layout every
// Default body reads, [panel][⌈K/2⌉][gemmNR][2]int8 (doc.go): the operand
// shape of VPMADDWD after a sign-extending load. Padding is zero.
func packPanels(w []int8, k, n int) []int8 {
	packed := make([]int8, (n+gemmNR-1)/gemmNR*panelBytes(k))
	for kk := 0; kk < k; kk++ {
		base := kk/2*pairStride + kk%2
		for col, v := range w[kk*n : kk*n+n] {
			packed[col/gemmNR*panelBytes(k)+base+col%gemmNR*2] = v
		}
	}
	return packed
}

// dwGroup is the depthwise assembly's channel group: sixteen int16
// lanes, two taps of eight channels per VPMADDWD. An op of 8 to 15
// channels runs groups of dwGroup/2 in X registers instead.
const dwGroup = 16

// pairLanes is the channel of a 16-channel group that each dword lane of
// VPUNPCKLWD (lanes 0-7) and VPUNPCKHWD (lanes 8-15) holds after two
// sign-extended tap rows are interleaved: the unpacks work within each
// 128-bit half. An 8-channel group is one such half, so its lanes keep
// channel order (pairLanes8).
var (
	pairLanes  = [dwGroup]int{0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15}
	pairLanes8 = [dwGroup / 2]int{0, 1, 2, 3, 4, 5, 6, 7}
)

// pairTaps interleaves a nine-tap depthwise's [tap][c] weights into the
// int16 pairs dwPairs9 reads: per group of n = dwGroup channels (n =
// dwGroup/2 when c < dwGroup) starting at 0, n, … and, when c%n != 0, at
// c−n (the overlapped last group), five tap pairs (0,1) … (6,7),
// (8, zero), each 2n int16 holding every lane's two weights side by side
// in pairLanes (pairLanes8) order.
func pairTaps(w []int8, c int) []int16 {
	lanes := pairLanes[:]
	if c < dwGroup {
		lanes = pairLanes8[:]
	}
	n := len(lanes)
	groups := (c + n - 1) / n
	paired := make([]int16, groups*5*2*n)
	for g := 0; g < groups; g++ {
		g0 := min(g*n, c-n)
		for p := 0; p < 5; p++ {
			dst := paired[(g*5+p)*2*n : (g*5+p+1)*2*n]
			t0 := w[2*p*c+g0 : 2*p*c+g0+n]
			for lane, ch := range lanes {
				dst[2*lane] = int16(t0[ch])
			}
			if p == 4 {
				continue
			}
			t1 := w[(2*p+1)*c+g0 : (2*p+1)*c+g0+n]
			for lane, ch := range lanes {
				dst[2*lane+1] = int16(t1[ch])
			}
		}
	}
	return paired
}

// foldZeroPoint returns bias[oc] − inZp·Σₖ w[k][oc] for a row-major K×N
// weight matrix, the bias the pure-int8 loops accumulate on top of,
// zero-padded to lanes entries.
func foldZeroPoint(w []int8, k, n int, bias []int32, inZp int32, lanes int) []int32 {
	folded := make([]int32, lanes)
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
// per row in (ky, kx, ic) order — the same order the weights use. A
// kernel row wholly inside the input is one contiguous KW·inC run of it
// and is copied at once; a border row goes tap by tap. Padding positions
// are filled with the input zero point, which the folded bias cancels
// exactly.
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
			ix0 := ox*op.SW - op.PadLeft
			if ix0 >= 0 && ix0+op.KW <= w {
				copy(d, in[(iy*w+ix0)*inC:])
				continue
			}
			for kx := 0; kx < op.KW; kx++ {
				ix := ix0 + kx
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

// epilogue is one bound op's requantize-and-store state. The assembly
// reads it by field offset (gemm_amd64.s), so the layout is fixed; the
// portable bodies use the three scalars.
type epilogue struct {
	bias, m0, rshift, rmask, rhalf *int32
	outZp, lo, hi                  int32
}

func newEpilogue(ctx *Ctx, op *graph.Op, outZp int32) *epilogue {
	e := &epilogue{
		m0: &ctx.m0[0], rshift: &ctx.rshift[0], rmask: &ctx.rmask[0], rhalf: &ctx.rhalf[0],
		outZp: outZp, lo: op.ClampMin, hi: op.ClampMax,
	}
	if len(ctx.zpBias) > 0 {
		e.bias = &ctx.zpBias[0]
	}
	return e
}

// requant is the portable epilogue: scale acc by channel ch's multiplier,
// add the output zero point, clamp, narrow.
func (c *Ctx) requant(ch int, acc int32, e *epilogue) int8 {
	return int8(clamp32(c.mult(ch).Apply(acc)+e.outZp, e.lo, e.hi))
}

// evenUp rounds a reduction length up to whole k-pairs: the row length
// of a widened A block.
func evenUp(k int) int { return k + k%2 }

// gemmRowsSIMD multiplies rows [0, rows) of a (stride k) against every
// panel on the assembly and requantizes into out[(m0+row)*n+col]: one
// gemmTile call, which sign-extends each gemmMR-row block into wide once
// and walks the panels. The checks below bound what gemmTile reads and
// writes.
func gemmRowsSIMD(a []int8, rows, k int, wide []int16, ctx *Ctx, e *epilogue, out []int8, m0, n int) {
	_ = a[rows*k-1]
	_ = wide[gemmMR*evenUp(k)-1]
	_ = out[(m0+rows)*n-1]
	gemmTile(&a[0], rows, k, &wide[0], &ctx.panels[0], e, &out[m0*n], n)
}

// gemmDenseSIMD computes panels [j0, j1) of a Dense layer's one output
// row on the assembly, each gemm1x16 call storing its panel's live
// columns.
func gemmDenseSIMD(in []int8, k int, ctx *Ctx, e *epilogue, out []int8, n, j0, j1 int) {
	_ = in[k-1]
	for j := j0; j < j1; j++ {
		col := j * gemmNR
		gemm1x16(&in[0], k, &ctx.panels[j*panelBytes(k)], e, col, &out[col], min(gemmNR, n-col))
	}
}

// gemmEngine is the im2col+GEMM engine behind Default. simd selects the
// body set: the assembly of gemm_amd64.s where the host has it, the
// portable Go microkernels otherwise. It is fixed per engine value, so
// tests can run both in one process.
type gemmEngine struct{ simd bool }

func (gemmEngine) Name() string { return "gemm16" }

// bindConv2D precomputes the conv orchestration once and returns a
// persistent executor: repeated calls perform zero allocations.
func (g gemmEngine) bindConv2D(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, s *Scratch) func() {
	it := m.Tensors[op.Inputs[0]]
	ot := m.Tensors[op.Output]
	h, w, inC := it.H, it.W, it.C
	oh, ow, n := ot.H, ot.W, ot.C
	k := ctx.k
	mTotal := oh * ow
	e := newEpilogue(ctx, op, ot.ZeroPoint)
	simd := g.simd && ctx.vecRequant
	wideLen := len(s.WideA) / Workers()
	rows := func(chunk int, a []int8, rows, m0 int) {
		if simd {
			wide := s.WideA[chunk*wideLen : (chunk+1)*wideLen]
			gemmRowsSIMD(a, rows, k, wide, ctx, e, out, m0, n)
		} else {
			gemmStoreRowsWide(a, rows, k, ctx, e, out, m0, n)
		}
	}

	if convIsPointwise(op) {
		// The NHWC input is already the M×K im2col matrix.
		fn := func(chunk, lo, hi int) { rows(chunk, in[lo*k:], hi-lo, lo) }
		minRows := grain(k*n, simd)
		return func() { s.Par.For(mTotal, minRows, fn) }
	}

	perWorker := gemmTileM * k
	tiles := s.Im2col
	pad := int8(it.ZeroPoint)
	nTiles := (mTotal + gemmTileM - 1) / gemmTileM
	fn := func(chunk, lo, hi int) {
		tile := tiles[chunk*perWorker : (chunk+1)*perWorker]
		for t := lo; t < hi; t++ {
			m0 := t * gemmTileM
			m1 := min(m0+gemmTileM, mTotal)
			im2colTile(op, in, h, w, inC, ow, k, m0, m1, pad, tile)
			rows(chunk, tile, m1-m0, m0)
		}
	}
	minTiles := grain(gemmTileM*k*n, simd)
	return func() { s.Par.For(nTiles, minTiles, fn) }
}

func (g gemmEngine) bindDense(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, s *Scratch) func() {
	ot := m.Tensors[op.Output]
	n := ot.C
	k := ctx.k
	e := newEpilogue(ctx, op, ot.ZeroPoint)
	simd := g.simd && ctx.vecRequant
	fn := func(_, lo, hi int) {
		if simd {
			gemmDenseSIMD(in, k, ctx, e, out, n, lo, hi)
		} else {
			gemmDensePanelsWide(ctx, e, in, out, n, k, lo, hi)
		}
	}
	panels := (n + gemmNR - 1) / gemmNR
	minPanels := grain(k*gemmNR, simd)
	return func() { s.Par.For(panels, minPanels, fn) }
}

// bindDWConv2D: depthwise has no GEMM form (each channel is its own tiny
// filter); the engine parallelizes output rows and accumulates
// channel-inner so both the activation and weight reads are unit-stride.
// Every pixel starts from ctx.dwBase and runs every tap, padded taps
// reading ctx.dwPad — modulo 2³² that is per-tap (x − zp)·w over the
// valid taps, hence bit-exact with Reference in any tap order.
func (g gemmEngine) bindDWConv2D(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, s *Scratch) func() {
	it := m.Tensors[op.Inputs[0]]
	ot := m.Tensors[op.Output]
	h, w, c := it.H, it.W, it.C
	oh, ow := ot.H, ot.W
	e := newEpilogue(ctx, op, ot.ZeroPoint)
	simd := g.simd && len(ctx.dwPairs) > 0
	minRows := grain(dwCost*ow*c*op.KH*op.KW, simd)
	if simd {
		fn := func(_, lo, hi int) { dwRowsSIMD(op, ctx, e, in, out, h, w, c, ow, lo, hi) }
		return func() { s.Par.For(oh, minRows, fn) }
	}
	accAll := s.Acc
	fn := func(chunk, lo, hi int) {
		acc := accAll[chunk*c : (chunk+1)*c : (chunk+1)*c]
		for oy := lo; oy < hi; oy++ {
			for ox := 0; ox < ow; ox++ {
				copy(acc, ctx.dwBase)
				for ky := 0; ky < op.KH; ky++ {
					iy := oy*op.SH + ky - op.PadTop
					for kx := 0; kx < op.KW; kx++ {
						ix := ox*op.SW + kx - op.PadLeft
						a := ctx.dwPad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							a = in[(iy*w+ix)*c : (iy*w+ix)*c+c : (iy*w+ix)*c+c]
						}
						wv := op.Weights[(ky*op.KW+kx)*c : (ky*op.KW+kx)*c+c : (ky*op.KW+kx)*c+c]
						for ch := range a {
							acc[ch] += int32(a[ch]) * int32(wv[ch])
						}
					}
				}
				outRow := out[(oy*ow+ox)*c : (oy*ow+ox)*c+c : (oy*ow+ox)*c+c]
				for ch := range outRow {
					outRow[ch] = ctx.requant(ch, acc[ch], e)
				}
			}
		}
	}
	return func() { s.Par.For(oh, minRows, fn) }
}

// dwRowsSIMD runs output rows [lo, hi) of a nine-tap depthwise with at
// least dwGroup/2 channels on the assembly body. The border/interior split
// is hoisted: columns [x0, x1) of a row whose input rows are all in
// range see nine valid taps at a constant stride and go to the assembly
// as one run; every other pixel is a run of one, its padded taps pointed
// at ctx.dwPad.
func dwRowsSIMD(op *graph.Op, ctx *Ctx, e *epilogue, in, out []int8, h, w, c, ow, lo, hi int) {
	x0 := (op.PadLeft + op.SW - 1) / op.SW
	x1 := min((w-op.KW+op.PadLeft+op.SW)/op.SW, ow)
	var taps [9]*int8
	for oy := lo; oy < hi; oy++ {
		iy0 := oy*op.SH - op.PadTop
		rowInside := iy0 >= 0 && iy0+op.KH <= h
		for ox := 0; ox < ow; {
			npix := 1
			if rowInside && ox == x0 && x1 > x0 {
				npix = x1 - x0
			}
			ix0 := ox*op.SW - op.PadLeft
			for t := range taps {
				iy, ix := iy0+t/op.KW, ix0+t%op.KW
				taps[t] = &ctx.dwPad[0]
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					taps[t] = &in[(iy*w+ix)*c]
				}
			}
			dwPairs9(&taps, &ctx.dwPairs[0], c, &ctx.dwBase[0], e, &out[(oy*ow+ox)*c], npix, op.SW*c)
			ox += npix
		}
	}
}

func (gemmEngine) bindAvgPool(m *graph.Model, op *graph.Op, in, out []int8, s *Scratch) func() {
	it, ot := m.Tensors[op.Inputs[0]], m.Tensors[op.Output]
	c := ot.C
	accAll := s.Acc
	fn := func(chunk, lo, hi int) {
		avgPoolChannelRows(op, in, out, it.H, it.W, c, ot.W, accAll[chunk*c:(chunk+1)*c], lo, hi)
	}
	minRows := grain(dwCost*ot.W*ot.C*op.KH*op.KW, false)
	return func() { s.Par.For(ot.H, minRows, fn) }
}

// avgPoolChannelRows is Default's average pool over output rows
// [oy0, oy1): every tap of a window adds its whole channel row into acc,
// and each channel is rounded once at the end. The integer sums are
// AvgPool's and so is the rounding (roundDiv), so the bytes are too.
func avgPoolChannelRows(op *graph.Op, in, out []int8, h, w, c, ow int, acc []int32, oy0, oy1 int) {
	for oy := oy0; oy < oy1; oy++ {
		y0 := oy * op.SH
		y1 := min(y0+op.KH, h)
		for ox := 0; ox < ow; ox++ {
			x0 := ox * op.SW
			x1 := min(x0+op.KW, w)
			clear(acc)
			for iy := y0; iy < y1; iy++ {
				for ix := x0; ix < x1; ix++ {
					row := in[(iy*w+ix)*c : (iy*w+ix)*c+c]
					acc := acc[:len(row)]
					for ch, v := range row {
						acc[ch] += int32(v)
					}
				}
			}
			count := int32(max(y1-y0, 0) * max(x1-x0, 0))
			if count == 0 {
				count = 1
			}
			outRow := out[(oy*ow+ox)*c : (oy*ow+ox)*c+c]
			acc := acc[:len(outRow)]
			for ch, sum := range acc {
				outRow[ch] = int8(clamp32(roundDiv(sum, count), op.ClampMin, op.ClampMax))
			}
		}
	}
}

func (gemmEngine) bindMaxPool(m *graph.Model, op *graph.Op, in, out []int8, s *Scratch) func() {
	ot := m.Tensors[op.Output]
	fn := func(_, lo, hi int) { maxPoolRows(m, op, in, out, lo, hi) }
	minRows := grain(dwCost*ot.W*ot.C*op.KH*op.KW, false)
	return func() { s.Par.For(ot.H, minRows, fn) }
}

// bindAdd runs an ADD eight elements at a time on the assembly (addVec)
// when every multiplier is in the vector requantize's domain, with the
// portable loop for the last len%8 elements; any other op, and every op
// on the portable body set, runs the portable loop throughout. An ADD is
// a few microseconds of streaming work, so it runs on one worker.
func (g gemmEngine) bindAdd(m *graph.Model, op *graph.Op, ctx *Ctx, a, b, out []int8, _ *Scratch) func() {
	p := newAddParams(m, op, ctx)
	if !g.simd || !ctx.vecRequant {
		return func() { p.add(a, b, out) }
	}
	n := len(out) &^ 7
	return func() {
		if n > 0 {
			addVec(&a[0], &b[0], n, &p, &out[0])
		}
		p.add(a[n:], b[n:], out[n:])
	}
}
