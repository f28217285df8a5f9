package kernels_test

import (
	"fmt"
	"math/rand"
	"testing"

	"micronets/internal/graph"
	"micronets/internal/kernels"
)

// BenchmarkGEMMPerOutput is the Default engine's cost per output of a
// pointwise conv, 64 output pixels (one im2col tile) × 64 channels (four
// panels), at K = 2, 16, 48 and 288: "out-ns" is ns per output. At K = 2
// it is nearly all the work done once per output (bias, requantize,
// store, loop), which dominates VWW-1's many K = 8-24 convs; at K = 288
// the MACs dominate. Every op here runs inline on the caller (it is
// below the fork grain), and only the exported API is used, so
// scripts/kernels_table.sh can run this file against an older revision
// too:
//
//	go test -run '^$' -bench GEMMPerOutput ./internal/kernels
func BenchmarkGEMMPerOutput(b *testing.B) {
	const side, n = 8, 64
	for _, k := range []int{2, 16, 48, 288} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k)))
			m := &graph.Model{Name: "per-output"}
			m.Tensors = []*graph.Tensor{
				{ID: 0, Name: "in", H: side, W: side, C: k, Scale: 0.05, ZeroPoint: -3, Bits: 8},
				{ID: 1, Name: "out", H: side, W: side, C: n, Scale: 0.1, ZeroPoint: -128, Bits: 8},
			}
			op := &graph.Op{
				Kind: graph.OpConv2D, Name: "pw", Inputs: []int{0}, Output: 1,
				KH: 1, KW: 1, SH: 1, SW: 1,
				Weights: make([]int8, k*n), WeightBits: 8,
				WeightScales: make([]float32, n), Bias: make([]int32, n),
				ClampMin: -128, ClampMax: 127,
			}
			for i := range op.Weights {
				op.Weights[i] = int8(rng.Intn(256) - 128)
			}
			for i := range op.WeightScales {
				op.WeightScales[i] = 0.002 + 0.02*rng.Float32()
				op.Bias[i] = int32(rng.Intn(4096) - 2048)
			}
			m.Ops = []*graph.Op{op}
			m.Input, m.Output = 0, 1
			in := make([]int8, side*side*k)
			for i := range in {
				in[i] = int8(rng.Intn(256) - 128)
			}
			bufs := [][]int8{in, make([]int8, side*side*n)}
			s := kernels.NewScratch(m, make([]int8, kernels.Default.ScratchBytes(m)))
			fn, err := kernels.BindOp(kernels.Default, m, op, kernels.PrepareModel(m).Ctx(0), bufs, s)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*side*side*n), "out-ns")
		})
	}
}
