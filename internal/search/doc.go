// Package search is the hardware-in-the-loop NAS harness: it fans each
// generation of candidate architectures across at most Config.Workers
// goroutines, evaluates each one by actually lowering it through graph →
// tflm (real greedy-planner arena bytes, not the element-count proxy) and
// costing it with the mcu latency/energy models, and maintains a Pareto
// frontier over (accuracy-proxy, latency, SRAM, flash). The search space
// is core.SpaceForTask's; the harness owns none. Candidates come from
// three generators — uniform random sampling of the space, evolutionary
// mutation of frontier members of the earlier generations (the search is
// generation-synchronous, so results are a pure function of seed and
// trial count whatever the worker count), and a DNAS warm start: the
// discretized architecture of the space's own supernet
// (core.Space.Supernet), trained briefly by the differentiable search in
// internal/core; the KWS supernet can skip to one DS block, below the
// space's MinBlocks, so mutation pads it back in (core.Space.Widths).
// Every evaluated trial is checkpointed as one JSONL line naming its
// core.Space.Digest, so a killed run resumes where it stopped (a record
// of another space is re-evaluated), and frontier winners export as a
// spec file of named specs that a server can load and serve immediately.
//
// The search is two-stage: the capacity proxy ranks the broad sweep, and
// then Config.Finalists frontier points are re-ranked by accuracy in the
// loop — real short training runs (Trainer: arch.Build, then the task's
// recipe on its small synthetic dataset, per-trial seeds, on the same
// bounded workers as stage one) whose measured TrainedAccuracy is
// recorded alongside the proxy, checkpointed as StageFinalist JSONL
// lines, and used as the accuracy axis of the frontier dominance
// ordering among finalists. This
// closes the paper's loop (§5): search under deployment constraints,
// measured on the target, trained for real, feeding the serving tier.
//
// Beyond single models, ExportCascade turns a searched frontier into a
// servable early-exit cascade graph (see internal/servegraph): the
// fastest point gates traffic for the most accurate one.
package search
