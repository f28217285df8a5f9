package experiments

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sort"
	"strings"
	"time"

	"micronets/internal/obs"
	"micronets/internal/serve"
	"micronets/internal/servegraph"
	"micronets/internal/zoo"
)

// GraphReport is the result of the cascade-vs-single-model serving
// experiment: mixed traffic through a two-stage cascade (small gate,
// frontier-large fallback) against the same traffic through the large
// model alone.
type GraphReport struct {
	Gate  string `json:"gate"`
	Large string `json:"large"`
	// GateMOps/LargeMOps are the per-inference op counts, the static side
	// of the story the latencies confirm.
	GateMOps  float64 `json:"gate_mops"`
	LargeMOps float64 `json:"large_mops"`
	Requests  int     `json:"requests"`
	// Threshold is the cascade early-exit confidence, chosen adaptively as
	// the 25th percentile of the gate's confidence on the traffic so ~75%
	// of requests exit at the gate.
	Threshold   float64 `json:"threshold"`
	GateHits    uint64  `json:"gate_hits"`
	Escalations uint64  `json:"escalations"`
	GateHitRate float64 `json:"gate_hit_rate"`
	// Mean per-request wall latencies over the same inputs, with
	// p50/p99 from the per-path latency histograms.
	GateMeanMs    float64 `json:"gate_mean_ms"`
	GateP50Ms     float64 `json:"gate_p50_ms"`
	GateP99Ms     float64 `json:"gate_p99_ms"`
	LargeMeanMs   float64 `json:"large_mean_ms"`
	LargeP50Ms    float64 `json:"large_p50_ms"`
	LargeP99Ms    float64 `json:"large_p99_ms"`
	CascadeMeanMs float64 `json:"cascade_mean_ms"`
	CascadeP50Ms  float64 `json:"cascade_p50_ms"`
	CascadeP99Ms  float64 `json:"cascade_p99_ms"`
	// Speedup is LargeMeanMs / CascadeMeanMs — >1 means the cascade beats
	// serving everything on the large model.
	Speedup float64 `json:"speedup_vs_large"`
	// Agreement is the fraction of requests where the cascade's answer
	// class matches the large model's (the escalated ones match trivially).
	Agreement float64 `json:"agreement_with_large"`
}

// GraphExperiment measures the cascade routing win end-to-end through the
// real serving stack: repository-loaded models, their interpreter pools,
// and the servegraph router — everything but the HTTP layer. n is the number of
// mixed-traffic requests (n >= 4; each request is one random KWS row).
func GraphExperiment(n int, seed int64) (*GraphReport, error) {
	if n < 4 {
		n = 4
	}
	const gateName, largeName = "DSCNN-S", "MicroNet-KWS-L"
	repo := serve.NewRepository(serve.RepositoryConfig{
		PoolSize: 1,
		Options:  serve.ModelOptions{Seed: seed, AppendSoftmax: true},
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer repo.Close()
	for _, name := range []string{gateName, largeName} {
		if _, err := repo.LoadZoo(name, serve.ModelOptions{Seed: seed, AppendSoftmax: true}); err != nil {
			return nil, fmt.Errorf("graph experiment: load %s: %w", name, err)
		}
	}
	backend := serve.GraphBackend(repo)
	info, err := backend.ModelInfo(gateName)
	if err != nil {
		return nil, err
	}
	elems := info.InputH * info.InputW * info.InputC

	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]float64, n)
	for i := range inputs {
		row := make([]float64, elems)
		for j := range row {
			row[j] = rng.Float64()*2 - 1
		}
		inputs[i] = row
	}

	ctx := context.Background()
	var gateHist, largeHist, cascadeHist obs.Histogram
	timeInfer := func(model string, x []float64, h *obs.Histogram) (servegraph.Scored, float64, error) {
		start := time.Now()
		s, err := backend.Infer(ctx, model, x)
		d := time.Since(start)
		h.Observe(d)
		return s, d.Seconds() * 1e3, err
	}

	// Profile both models on the whole traffic: the gate pass yields the
	// confidence distribution the threshold is drawn from, the large pass
	// the single-model baseline the cascade must beat.
	confidences := make([]float64, n)
	largeClasses := make([]int, n)
	var gateMs, largeMs float64
	for i, x := range inputs {
		s, ms, err := timeInfer(gateName, x, &gateHist)
		if err != nil {
			return nil, err
		}
		gateMs += ms
		best := 0
		for j, p := range s.Probs {
			if p > s.Probs[best] {
				best = j
			}
		}
		confidences[i] = s.Probs[best]

		s, ms, err = timeInfer(largeName, x, &largeHist)
		if err != nil {
			return nil, err
		}
		largeMs += ms
		best = 0
		for j, p := range s.Probs {
			if p > s.Probs[best] {
				best = j
			}
		}
		largeClasses[i] = best
	}

	// Adaptive threshold: the 25th-percentile gate confidence. Everything
	// at or above it (~75% of traffic) exits at the gate, so the blended
	// latency lands near gate + 0.25*large regardless of how peaked the
	// untrained confidence distribution happens to be.
	sorted := append([]float64(nil), confidences...)
	sort.Float64s(sorted)
	threshold := sorted[n/4]
	if threshold > 1 {
		threshold = 1
	}

	reg := servegraph.NewRegistry(backend)
	g, err := reg.Put(&servegraph.Spec{
		Name: "bench-cascade",
		Root: &servegraph.NodeSpec{
			Kind: servegraph.KindCascade, Name: "cascade", Threshold: threshold,
			Children: []*servegraph.NodeSpec{
				{Kind: servegraph.KindModel, Model: gateName},
				{Kind: servegraph.KindModel, Model: largeName},
			},
		},
	})
	if err != nil {
		return nil, err
	}

	var cascadeMs float64
	agree := 0
	for i, x := range inputs {
		start := time.Now()
		res, err := g.Infer(ctx, x, "")
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		cascadeHist.Observe(d)
		cascadeMs += d.Seconds() * 1e3
		if res.Class == largeClasses[i] {
			agree++
		}
	}

	var gateHits, escalations uint64
	for _, ns := range g.Stats().Nodes {
		if ns.Kind == servegraph.KindCascade {
			gateHits, escalations = ns.GateHits, ns.Escalations
		}
	}

	gateE, err := zoo.Get(gateName)
	if err != nil {
		return nil, err
	}
	largeE, err := zoo.Get(largeName)
	if err != nil {
		return nil, err
	}

	rep := &GraphReport{
		Gate:          gateName,
		Large:         largeName,
		GateMOps:      gateE.Paper.MOps,
		LargeMOps:     largeE.Paper.MOps,
		Requests:      n,
		Threshold:     threshold,
		GateHits:      gateHits,
		Escalations:   escalations,
		GateHitRate:   float64(gateHits) / float64(n),
		GateMeanMs:    gateMs / float64(n),
		GateP50Ms:     gateHist.Snapshot().P50().Seconds() * 1e3,
		GateP99Ms:     gateHist.Snapshot().P99().Seconds() * 1e3,
		LargeMeanMs:   largeMs / float64(n),
		LargeP50Ms:    largeHist.Snapshot().P50().Seconds() * 1e3,
		LargeP99Ms:    largeHist.Snapshot().P99().Seconds() * 1e3,
		CascadeMeanMs: cascadeMs / float64(n),
		CascadeP50Ms:  cascadeHist.Snapshot().P50().Seconds() * 1e3,
		CascadeP99Ms:  cascadeHist.Snapshot().P99().Seconds() * 1e3,
		Agreement:     float64(agree) / float64(n),
	}
	if rep.CascadeMeanMs > 0 {
		rep.Speedup = rep.LargeMeanMs / rep.CascadeMeanMs
	}
	return rep, nil
}

// RenderGraphReport formats a GraphReport as the bench text table.
func RenderGraphReport(r *GraphReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Inference-graph cascade vs single large model (%d mixed requests)\n", r.Requests)
	fmt.Fprintf(&b, "gate %s (%.1f MOps), fallback %s (%.1f MOps), early-exit confidence %.3f\n",
		r.Gate, r.GateMOps, r.Large, r.LargeMOps, r.Threshold)
	fmt.Fprintf(&b, "%-22s %12s %10s %10s %14s\n", "path", "mean ms/req", "p50 ms", "p99 ms", "vs large-only")
	fmt.Fprintf(&b, "%-22s %12.2f %10.2f %10.2f %14s\n", r.Gate+" only", r.GateMeanMs, r.GateP50Ms, r.GateP99Ms, "-")
	fmt.Fprintf(&b, "%-22s %12.2f %10.2f %10.2f %14.2fx\n", r.Large+" only", r.LargeMeanMs, r.LargeP50Ms, r.LargeP99Ms, 1.0)
	fmt.Fprintf(&b, "%-22s %12.2f %10.2f %10.2f %14.2fx\n", "cascade", r.CascadeMeanMs, r.CascadeP50Ms, r.CascadeP99Ms, r.Speedup)
	fmt.Fprintf(&b, "gate answered %d/%d requests (%.0f%%), %d escalated; cascade agrees with %s on %.0f%% of answers\n",
		r.GateHits, r.Requests, 100*r.GateHitRate, r.Escalations, r.Large, 100*r.Agreement)
	b.WriteString("(the tiny gate absorbs the easy majority, so blended latency approaches the gate's — the serving-side version of the paper's per-inference op budget)\n")
	return b.String()
}
