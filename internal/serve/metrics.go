package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"micronets/internal/obs"
	"micronets/internal/servegraph"
)

// handleMetrics renders the serving counters in Prometheus text
// exposition format, hand-rolled so the repo stays dependency-free. Gauge
// vs counter and the _sum/_count latency pair follow the conventions a
// real scraper expects. Repository state — versions, budget-planned pool
// sizes, and arena reservations — is exported next to the request
// counters so a scrape shows both the control plane and the data plane.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	actives := s.repo.actives()
	fmt.Fprintf(&b, "# HELP micronets_serve_uptime_seconds Seconds since the server finished warm-up.\n")
	fmt.Fprintf(&b, "# TYPE micronets_serve_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "micronets_serve_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	fmt.Fprintf(&b, "# HELP micronets_serve_models_loaded Models with a serving (READY) version.\n")
	fmt.Fprintf(&b, "# TYPE micronets_serve_models_loaded gauge\n")
	fmt.Fprintf(&b, "micronets_serve_models_loaded %d\n", len(actives))
	fmt.Fprintf(&b, "# HELP micronets_serve_lowerings_total Graph lowerings performed (cache misses).\n")
	fmt.Fprintf(&b, "# TYPE micronets_serve_lowerings_total counter\n")
	fmt.Fprintf(&b, "micronets_serve_lowerings_total %d\n", s.repo.Lowerings())
	fmt.Fprintf(&b, "# HELP micronets_serve_ram_budget_bytes Configured repository RAM budget (0 = unbudgeted).\n")
	fmt.Fprintf(&b, "# TYPE micronets_serve_ram_budget_bytes gauge\n")
	fmt.Fprintf(&b, "micronets_serve_ram_budget_bytes %d\n", s.repo.RAMBudgetBytes())
	fmt.Fprintf(&b, "# HELP micronets_serve_ram_planned_bytes Bytes reserved by live model versions (shared weights + pooled arenas).\n")
	fmt.Fprintf(&b, "# TYPE micronets_serve_ram_planned_bytes gauge\n")
	fmt.Fprintf(&b, "micronets_serve_ram_planned_bytes %d\n", s.repo.PlannedRAMBytes())

	counter := func(name, help string, val func(*version) uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, v := range actives {
			fmt.Fprintf(&b, "%s{model=%q} %d\n", name, v.name, val(v))
		}
	}
	counter("micronets_serve_requests_total", "Input rows run through Invoke.",
		func(v *version) uint64 { return v.stats.requests.Load() })
	counter("micronets_serve_request_errors_total", "Rows that failed (bad input, invoke error).",
		func(v *version) uint64 { return v.stats.errors.Load() })
	counter("micronets_serve_request_canceled_total", "Rows whose caller's context ended while waiting for an interpreter (not model failures).",
		func(v *version) uint64 { return v.stats.canceled.Load() })

	histogram := func(name, help string, val func(*version) *obs.Histogram) {
		obs.WriteHistogramHead(&b, name, help)
		for _, v := range actives {
			val(v).Snapshot().WritePrometheus(&b, name, fmt.Sprintf("model=%q", v.name))
		}
	}
	histogram("micronets_serve_request_latency_seconds", "End-to-end row latency (queue wait + invoke).",
		func(v *version) *obs.Histogram { return &v.stats.latency })
	histogram("micronets_serve_queue_wait_seconds", "Time rows waited for a free pooled interpreter.",
		func(v *version) *obs.Histogram { return &v.stats.queueWait })
	histogram("micronets_serve_invoke_seconds", "Copy-in, Invoke and copy-out wall time per row.",
		func(v *version) *obs.Histogram { return &v.stats.invoke })
	histogram("micronets_serve_decode_seconds", "Body read, parse and quantize per infer request, before any row runs.",
		func(v *version) *obs.Histogram { return &v.stats.decode })
	histogram("micronets_serve_encode_seconds", "Response encode and write per successful infer request, after every row ran.",
		func(v *version) *obs.Histogram { return &v.stats.encode })

	gauge := func(name, help string, val func(*version) int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, v := range actives {
			fmt.Fprintf(&b, "%s{model=%q} %d\n", name, v.name, val(v))
		}
	}
	gauge("micronets_serve_model_version", "Serving version number of the model.",
		func(v *version) int64 { return int64(v.num) })
	gauge("micronets_serve_pool_size", "Budget-planned interpreter replicas of the serving version.",
		func(v *version) int64 { return int64(v.poolSize) })
	gauge("micronets_serve_planned_arena_bytes", "Bytes the serving version reserves against the RAM budget (shared weights + pool arenas).",
		func(v *version) int64 { return int64(v.plannedBytes) })
	gauge("micronets_serve_arena_bytes", "Arena bytes per pooled interpreter (host allocation).",
		func(v *version) int64 { return int64(v.arenaBytes) })
	gauge("micronets_serve_shared_weight_bytes", "Prepared weight bytes (packed panels, folded biases) shared by every pool replica — paid once per version.",
		func(v *version) int64 { return int64(v.weightBytes) })

	// model_versions counts live versions per name (READY + DRAINING +
	// LOADING) — >1 flags an in-progress blue/green swap.
	fmt.Fprintf(&b, "# HELP micronets_serve_model_versions Live versions of the model (>1 during a swap).\n")
	fmt.Fprintf(&b, "# TYPE micronets_serve_model_versions gauge\n")
	perName := map[string]int{}
	var nameOrder []string
	for _, st := range s.repo.Index() {
		if perName[st.Name] == 0 {
			nameOrder = append(nameOrder, st.Name)
		}
		perName[st.Name]++
	}
	for _, n := range nameOrder {
		fmt.Fprintf(&b, "micronets_serve_model_versions{model=%q} %d\n", n, perName[n])
	}
	s.writeGraphMetrics(&b)
	obs.WriteScrape(w, b.String())
}

// writeGraphMetrics renders the inference-graph router counters: per-graph
// request/error/latency families plus per-node requests and the cascade
// (gate hits, escalations) and splitter (picks) counters — the
// observability half of the router's contract. Labels are {graph} and
// {graph,node}; node names come from NodeSpec.Name or the node path.
func (s *Server) writeGraphMetrics(b *strings.Builder) {
	snaps := s.graphs.Snapshot()
	fmt.Fprintf(b, "# HELP micronets_graphs_registered Registered inference graphs.\n")
	fmt.Fprintf(b, "# TYPE micronets_graphs_registered gauge\n")
	fmt.Fprintf(b, "micronets_graphs_registered %d\n", len(snaps))
	if len(snaps) == 0 {
		return
	}
	graphCounter := func(name, help string, val func(servegraph.GraphStats) uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, g := range snaps {
			fmt.Fprintf(b, "%s{graph=%q} %d\n", name, g.Name, val(g))
		}
	}
	graphCounter("micronets_graph_requests_total", "Requests routed through the graph.",
		func(g servegraph.GraphStats) uint64 { return g.Requests })
	graphCounter("micronets_graph_request_errors_total", "Graph requests that failed.",
		func(g servegraph.GraphStats) uint64 { return g.Errors })
	obs.WriteHistogramHead(b, "micronets_graph_request_latency_seconds", "End-to-end graph routing latency.")
	for _, g := range snaps {
		g.Latency.WritePrometheus(b, "micronets_graph_request_latency_seconds", fmt.Sprintf("graph=%q", g.Name))
	}
	fmt.Fprintf(b, "# HELP micronets_graph_revision Times the graph name has been (re)registered.\n")
	fmt.Fprintf(b, "# TYPE micronets_graph_revision gauge\n")
	for _, g := range snaps {
		fmt.Fprintf(b, "micronets_graph_revision{graph=%q} %d\n", g.Name, g.Revision)
	}
	nodeCounter := func(name, help string, val func(servegraph.NodeStats) uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, g := range snaps {
			for _, n := range g.Nodes {
				fmt.Fprintf(b, "%s{graph=%q,node=%q} %d\n", name, g.Name, n.Node, val(n))
			}
		}
	}
	nodeCounter("micronets_graph_node_requests_total", "Requests the node evaluated.",
		func(n servegraph.NodeStats) uint64 { return n.Requests })
	nodeCounter("micronets_graph_node_errors_total", "Node evaluations that failed.",
		func(n servegraph.NodeStats) uint64 { return n.Errors })
	// Cascade and splitter counters only exist on their node kinds; emit
	// them only where meaningful so the scrape stays compact.
	emitIf := func(name, help, kind string, val func(servegraph.NodeStats) uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, g := range snaps {
			for _, n := range g.Nodes {
				if n.Kind == kind {
					fmt.Fprintf(b, "%s{graph=%q,node=%q} %d\n", name, g.Name, n.Node, val(n))
				}
			}
		}
	}
	emitIf("micronets_graph_gate_hits_total", "Cascade answers produced by a non-final stage.",
		servegraph.KindCascade, func(n servegraph.NodeStats) uint64 { return n.GateHits })
	emitIf("micronets_graph_escalations_total", "Cascade requests escalated to a later stage.",
		servegraph.KindCascade, func(n servegraph.NodeStats) uint64 { return n.Escalations })
	fmt.Fprintf(b, "# HELP micronets_graph_splitter_picks_total Times the splitter arm was chosen.\n")
	fmt.Fprintf(b, "# TYPE micronets_graph_splitter_picks_total counter\n")
	for _, g := range snaps {
		for _, n := range g.Nodes {
			if n.Weight > 0 {
				fmt.Fprintf(b, "micronets_graph_splitter_picks_total{graph=%q,node=%q} %d\n", g.Name, n.Node, n.Picks)
			}
		}
	}
}
