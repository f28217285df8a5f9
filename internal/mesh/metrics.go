package mesh

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"micronets/internal/obs"
)

// handleMetrics renders the micronets_mesh_* family in Prometheus text
// exposition format, hand-rolled like the replica tier so the repo
// stays dependency-free. Per-replica series carry a replica="<url>"
// label; fleet-wide counters (retries, placement failures) are
// unlabeled.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP micronets_mesh_uptime_seconds Seconds since the router started.\n")
	fmt.Fprintf(&b, "# TYPE micronets_mesh_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "micronets_mesh_uptime_seconds %.3f\n", time.Since(rt.start).Seconds())
	fmt.Fprintf(&b, "# HELP micronets_mesh_replicas Configured backend replicas.\n")
	fmt.Fprintf(&b, "# TYPE micronets_mesh_replicas gauge\n")
	fmt.Fprintf(&b, "micronets_mesh_replicas %d\n", len(rt.replicas))
	fmt.Fprintf(&b, "# HELP micronets_mesh_replicas_up Replicas currently marked up.\n")
	fmt.Fprintf(&b, "# TYPE micronets_mesh_replicas_up gauge\n")
	fmt.Fprintf(&b, "micronets_mesh_replicas_up %d\n", rt.upCount())
	fmt.Fprintf(&b, "# HELP micronets_mesh_request_retries_total Proxied attempts moved to an alternate replica.\n")
	fmt.Fprintf(&b, "# TYPE micronets_mesh_request_retries_total counter\n")
	fmt.Fprintf(&b, "micronets_mesh_request_retries_total %d\n", rt.retries.Load())
	fmt.Fprintf(&b, "# HELP micronets_mesh_placement_failures_total Placements no replica could take (fleet-wide 409s).\n")
	fmt.Fprintf(&b, "# TYPE micronets_mesh_placement_failures_total counter\n")
	fmt.Fprintf(&b, "micronets_mesh_placement_failures_total %d\n", rt.placeFails.Load())

	gauge := func(name, help string, val func(*replica, *replicaView) int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, rep := range rt.replicas {
			fmt.Fprintf(&b, "%s{replica=%q} %d\n", name, rep.url, val(rep, rep.view.Load()))
		}
	}
	gauge("micronets_mesh_replica_up", "Health state of the replica (1 = up).",
		func(rep *replica, _ *replicaView) int64 {
			if rep.up.Load() {
				return 1
			}
			return 0
		})
	gauge("micronets_mesh_replica_models_ready", "Models with a READY version on the replica (last view).",
		func(_ *replica, v *replicaView) int64 { return int64(len(v.models)) })
	gauge("micronets_mesh_replica_ram_budget_bytes", "Replica RAM budget (0 = unbudgeted or unknown).",
		func(_ *replica, v *replicaView) int64 { return int64(v.budgetBytes) })
	gauge("micronets_mesh_replica_ram_planned_bytes", "Bytes the replica has planned against its budget.",
		func(_ *replica, v *replicaView) int64 { return int64(v.plannedBytes) })
	gauge("micronets_mesh_replica_free_bytes", "Replica budget headroom (-1 = unbudgeted).",
		func(_ *replica, v *replicaView) int64 { return int64(v.freeBytes) })

	counter := func(name, help string, val func(*replica) uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, rep := range rt.replicas {
			fmt.Fprintf(&b, "%s{replica=%q} %d\n", name, rep.url, val(rep))
		}
	}
	counter("micronets_mesh_replica_requests_total", "Proxied requests the replica answered.",
		func(rep *replica) uint64 { return rep.requests.Load() })
	counter("micronets_mesh_replica_errors_total", "Transport failures talking to the replica.",
		func(rep *replica) uint64 { return rep.errors.Load() })
	counter("micronets_mesh_placements_total", "Admin loads and graph registrations placed on the replica.",
		func(rep *replica) uint64 { return rep.placements.Load() })
	counter("micronets_mesh_spills_total", "Placements the replica rejected over budget (or was pre-skipped for).",
		func(rep *replica) uint64 { return rep.spills.Load() })
	counter("micronets_mesh_health_transitions_total", "Times the replica flipped up/down.",
		func(rep *replica) uint64 { return rep.transitions.Load() })

	obs.WriteHistogramHead(&b, "micronets_mesh_request_latency_seconds",
		"Latency of proxied requests, per replica (router-side).")
	for _, rep := range rt.replicas {
		rep.hist.Snapshot().WritePrometheus(&b, "micronets_mesh_request_latency_seconds",
			fmt.Sprintf("replica=%q", rep.url))
	}

	obs.WriteScrape(w, b.String())
}
