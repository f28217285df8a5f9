package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"micronets/internal/graph"
	"micronets/internal/kernels"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// EngineRow is one model's host-side kernel-engine comparison: wall time
// per inference on the naive Reference kernels and on kernels.Default
// (parallel im2col+GEMM, 16-wide microkernel) — bit-exact by construction
// (the parity tests enforce it; this experiment re-checks the full output
// as a smoke signal).
type EngineRow struct {
	Model      string
	MACs       int64
	ReferenceS float64
	DefaultS   float64
	// Speedup is default vs reference.
	Speedup  float64
	AgreeOut bool
}

// engineTime returns the best-of-runs single-inference wall time for one
// engine, plus the final output bytes, using InvokeBatch so plan setup is
// paid once for the whole measurement batch.
func engineTime(m *graph.Model, eng kernels.Engine, batch [][]int8, runs int) (float64, []int8, error) {
	ip, err := tflm.NewInterpreterWithEngine(m, 0, eng)
	if err != nil {
		return 0, nil, err
	}
	var outs [][]int8
	best := 0.0
	for r := 0; r < runs; r++ {
		start := time.Now()
		outs, err = ip.InvokeBatch(batch)
		if err != nil {
			return 0, nil, err
		}
		if d := time.Since(start).Seconds() / float64(len(batch)); r == 0 || d < best {
			best = d
		}
	}
	return best, outs[len(outs)-1], nil
}

// EngineComparison measures Reference vs Default inference time for the
// named zoo models on this host. batch inputs per run amortize setup;
// the reported time is the best of 3 runs per engine.
func EngineComparison(names []string, seed int64) ([]EngineRow, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]EngineRow, 0, len(names))
	for _, name := range names {
		e, err := zoo.Get(name)
		if err != nil {
			return nil, err
		}
		m, err := graph.FromSpec(e.Spec, rng, graph.LowerOptions{AppendSoftmax: true})
		if err != nil {
			return nil, err
		}
		inElems := m.Tensors[m.Input].Elems()
		const batchN = 4
		batch := make([][]int8, batchN)
		for b := range batch {
			batch[b] = make([]int8, inElems)
			for i := range batch[b] {
				batch[b][i] = int8(rng.Intn(256) - 128)
			}
		}
		refS, refOut, err := engineTime(m, kernels.Reference, batch, 3)
		if err != nil {
			return nil, err
		}
		defS, defOut, err := engineTime(m, kernels.Default, batch, 3)
		if err != nil {
			return nil, err
		}
		rows = append(rows, EngineRow{
			Model:      name,
			MACs:       m.TotalMACs(),
			ReferenceS: refS,
			DefaultS:   defS,
			Speedup:    refS / defS,
			AgreeOut:   slices.Equal(refOut, defOut),
		})
	}
	return rows, nil
}

// EngineModels is the default model set for the engine comparison —
// shared by the text report and cmd/bench's BENCH_engine.json so both
// always describe the same measurement.
var EngineModels = []string{
	"MicroNet-KWS-S", "MicroNet-KWS-M", "MicroNet-VWW-1", "MicroNet-VWW-2",
}

// RenderEngineRows formats already-measured engine rows as a text table,
// letting callers render and serialize one timing run instead of paying
// (and potentially disagreeing across) two.
func RenderEngineRows(rows []EngineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Host inference engines: naive direct conv (%s) vs parallel im2col+GEMM (%s)\n",
		kernels.Reference.Name(), kernels.Default.Name())
	fmt.Fprintf(&b, "%-18s %10s %12s %12s %9s %7s\n",
		"model", "MMACs", "naive (ms)", "gemm (ms)", "speedup", "exact")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10.1f %12.2f %12.2f %8.2fx %7v\n",
			r.Model, float64(r.MACs)/1e6, r.ReferenceS*1e3, r.DefaultS*1e3, r.Speedup, r.AgreeOut)
	}
	b.WriteString("(both engines produce bit-identical int8 outputs; see kernels parity tests)\n")
	return b.String()
}
