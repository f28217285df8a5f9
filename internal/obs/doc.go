// Package obs is the stdlib-only observability substrate of the serving
// stack: lock-free log-bucketed latency histograms (rendered as
// Prometheus _bucket/_sum/_count families, with p50/p95/p99
// extraction) and a lightweight span/trace model (trace ID, parent/child
// spans, start/duration, attributes) carried through request contexts.
//
// Histograms are fixed-size arrays of atomic counters — Observe is a
// few instructions and never allocates, so the data path can record
// every request. Traces are opt-in per request (the X-Micronets-Trace
// header) and bounded at maxSpans, so a pathological fan-out cannot
// balloon a response.
package obs
