// Package mesh is the fleet tier: a model-mesh placement router that
// fronts N cmd/serve replicas — each a budget-bounded model repository —
// behind one /v2 door.
//
// The router discovers replicas from a static list, health-checks each
// one via /v2/health/ready (mark-down after consecutive failures,
// mark-up after consecutive successes), and keeps a per-replica fleet
// view: which models and graphs the replica serves, and how much of its
// RAM budget is free. Admin loads are *placed*: candidates are ordered
// by consistent-hash affinity on the model name, and a replica that
// rejects the load with a structured 409 ram_budget_exceeded spills the
// placement to the next candidate — the same SRAM-class bin-packing the
// paper does per device, lifted to the fleet. The data plane
// (models/{name}/infer, graphs/{name}/infer, metadata, profile) proxies
// to a replica holding the target, and GET /v2/repository/index answers
// with the merged fleet view. Everything the router observes —
// per-replica request/error/latency, placement decisions, spills,
// health transitions — is exported as the micronets_mesh_* metric
// family.
//
// # The retry rule
//
// Every route that picks a replica runs the same loop, Router.walk,
// over the same transport primitive, Router.attempt (request and
// response bodies are buffered, bounded at 32 MB, so a request can be
// replayed). Candidates are the up replicas in the target name's ring
// order, holders of the target first. Each attempt ends one of three
// ways:
//
//   - Transport failure — the connection fails, resets or times out,
//     the body stops short, or the response is over the body bound:
//     the replica's errors counter moves, the walk waits RetryBackoff
//     (doubling per failure, capped at 1s, cut short when the client's
//     context ends, which ends the walk) and tries the next candidate.
//     There is no wait after the last candidate.
//   - Spill — the answer means "not here, maybe elsewhere": a 404 on
//     the data plane (the fleet view may be stale), a 409
//     ram_budget_exceeded on a load, a 404 unknown_model or 409
//     model_not_loaded on a graph PUT. The walk moves on at once.
//   - Anything else, success or error, is final and relayed as-is.
//
// An attempt after the first counts in request_retries_total. When no
// answer was final the last spill is relayed (a load synthesizes the
// fleet-wide 409 instead); with no spill either the router answers 502
// replicas_unreachable, or 503 no_replicas when no replica was up. The
// data plane tries at most MaxAttempts candidates; placement (load,
// graph PUT) walks every up candidate. Unload and graph DELETE do not
// walk: they fan out to every holder, one attempt each, and stop at
// the first failure.
package mesh
