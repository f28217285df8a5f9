// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment id of `go run ./cmd/bench -exp <id>`, which prints the
// report), plus kernel and runtime microbenchmarks. Run with:
//
//	go test -bench=. -benchmem
package micronets

import (
	"math"
	"math/rand"
	"testing"

	"micronets/internal/experiments"
	"micronets/internal/graph"
	"micronets/internal/kernels"
	"micronets/internal/mcu"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure2MemoryMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2("MicroNet-KWS-L", 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3LayerCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(20, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4LatencyLinearity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure4(40, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.R2 < 0.9 {
				b.Fatalf("linearity regressed: %s/%s r2=%.3f", s.Backbone, s.Device, s.R2)
			}
		}
	}
}

func BenchmarkFigure5PowerEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(60, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7KWSPareto(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderPareto("kws", 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8VWWPareto(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderPareto("vww", 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9PowerTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10SubByte(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11MCUNetComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2FourBitKWS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3AnomalyDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4FullResults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Architectures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table5()) == 0 {
			b.Fatal("empty")
		}
	}
}

// --- runtime microbenchmarks -------------------------------------------

func loweredModel(b *testing.B, name string) *graph.Model {
	b.Helper()
	e, err := zoo.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(1)), graph.LowerOptions{AppendSoftmax: true})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchInvoke(b *testing.B, name string, eng kernels.Engine) {
	b.Helper()
	m := loweredModel(b, name)
	ip, err := tflm.NewInterpreterWithEngine(m, 0, eng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ip.Invoke(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvoke* compare the naive direct-convolution kernels
// (kernels.Reference) against the im2col+GEMM engine (kernels.Default)
// on KWS- and VWW-shaped models. The acceptance bars: ≥25× on the VWW
// model with the assembly bodies, ≥2× under -tags purego (the portable
// body), and -cpu 2 no slower than -cpu 1 (the fork-join grain):
//
//	go test -bench=BenchmarkInvoke -cpu 1,2
func BenchmarkInvokeKWSSReference(b *testing.B) { benchInvoke(b, "MicroNet-KWS-S", kernels.Reference) }
func BenchmarkInvokeKWSSParallel(b *testing.B)  { benchInvoke(b, "MicroNet-KWS-S", kernels.Default) }

// BenchmarkInvokeKWSSProfiledHook is the same invoke with a per-op timer
// installed. Compare against BenchmarkInvokeKWSSParallel to bound the
// profiling-hook overhead; with no hook set, Invoke takes the untimed
// path (a single nil check), so the disabled cost is ~0.
func BenchmarkInvokeKWSSProfiledHook(b *testing.B) {
	m := loweredModel(b, "MicroNet-KWS-S")
	ip, err := tflm.NewInterpreterWithEngine(m, 0, kernels.Default)
	if err != nil {
		b.Fatal(err)
	}
	var sink int64
	ip.SetOpTimer(func(index int, kind graph.OpKind, name string, ns int64) { sink += ns })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ip.Invoke(); err != nil {
			b.Fatal(err)
		}
	}
	if b.N > 0 && sink < 0 {
		b.Fatal("impossible negative time")
	}
}
func BenchmarkInvokeKWSLReference(b *testing.B) { benchInvoke(b, "MicroNet-KWS-L", kernels.Reference) }
func BenchmarkInvokeKWSLParallel(b *testing.B)  { benchInvoke(b, "MicroNet-KWS-L", kernels.Default) }
func BenchmarkInvokeVWWReference(b *testing.B)  { benchInvoke(b, "MicroNet-VWW-1", kernels.Reference) }
func BenchmarkInvokeVWWParallel(b *testing.B)   { benchInvoke(b, "MicroNet-VWW-1", kernels.Default) }

// opKind is the column of BenchmarkInvokeOpKinds an op falls in: the
// op kinds whose Default kernels differ, 1×1 and k×k convolutions apart.
func opKind(op *graph.Op) string {
	switch op.Kind {
	case graph.OpConv2D:
		if op.KH == 1 && op.KW == 1 {
			return "pw"
		}
		return "conv"
	case graph.OpDWConv2D:
		return "dw"
	case graph.OpAdd:
		return "add"
	case graph.OpAvgPool, graph.OpMaxPool:
		return "pool"
	default:
		return "other"
	}
}

// BenchmarkInvokeOpKinds is the per-op-kind table of the Default engine
// on four MicroNets and Person Detection (whose first depthwise, at 8
// channels, is the catalogue's only one below 16): each iteration is one ProfileInvoke, every op keeps
// its fastest time over the b.N runs, and the minima are summed per op
// kind into "<kind>-ns" (ns per invoke) and "<kind>-GMAC/s". "invoke-ns"
// is the fastest whole invoke. Minima, because shared-host vCPUs change
// speed for seconds at a time and an op's floor is what a kernel change
// moves. scripts/kernels_table.sh (make kernels-table) runs it against
// another revision and prints the two side by side:
//
//	go test -run '^$' -bench InvokeOpKinds -benchtime 300x .
func BenchmarkInvokeOpKinds(b *testing.B) {
	for _, name := range []string{"MicroNet-KWS-S", "MicroNet-KWS-L", "MicroNet-AD-L", "MicroNet-VWW-1", "Person Detection"} {
		b.Run(name, func(b *testing.B) {
			m := loweredModel(b, name)
			ip, err := tflm.NewInterpreterWithEngine(m, 0, kernels.Default)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for i := range ip.Input() {
				ip.Input()[i] = int8(rng.Intn(256) - 128)
			}
			minOp := make([]int64, len(m.Ops))
			for i := range minOp {
				minOp[i] = math.MaxInt64
			}
			minInvoke := int64(math.MaxInt64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				timings, err := ip.ProfileInvoke()
				if err != nil {
					b.Fatal(err)
				}
				var total int64
				for _, t := range timings {
					minOp[t.Index] = min(minOp[t.Index], t.Ns)
					total += t.Ns
				}
				minInvoke = min(minInvoke, total)
			}
			ns := map[string]int64{}
			macs := map[string]int64{}
			for i, op := range m.Ops {
				ns[opKind(op)] += minOp[i]
				macs[opKind(op)] += op.MACs(m)
			}
			b.ReportMetric(float64(minInvoke), "invoke-ns")
			for kind, t := range ns {
				b.ReportMetric(float64(t), kind+"-ns")
				if macs[kind] > 0 && t > 0 {
					b.ReportMetric(float64(macs[kind])/float64(t), kind+"-GMAC/s")
				}
			}
		})
	}
}

func BenchmarkMemoryPlannerKWSL(b *testing.B) {
	m := loweredModel(b, "MicroNet-KWS-L")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tflm.PlanMemory(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatencyModelVWW1(b *testing.B) {
	m := loweredModel(b, "MicroNet-VWW-1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lat, _, err := mcu.ModelLatency(m, mcu.F746ZG); err != nil || lat <= 0 {
			b.Fatal("bad latency", lat, err)
		}
	}
}

func BenchmarkSerializeKWSM(b *testing.B) {
	m := loweredModel(b, "MicroNet-KWS-M")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graph.SerializedSize(m) <= 0 {
			b.Fatal("bad size")
		}
	}
}
