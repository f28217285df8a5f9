// Package serve is the HTTP inference-serving subsystem: a KServe-v2-style
// JSON protocol (health, model listing, metadata, infer) layered over the
// repo's int8 TFLM-style runtime. The data path is
//
//	repository → interpreter pool → micro-batcher → kernels engine
//
// A Repository is the versioned control plane, and a repository version
// is the package's one loaded-model concept: it lowers a requested
// architecture once (identified by spec fingerprint + lowering options),
// prepares its kernels, builds a fixed interpreter pool — sized against
// the RAM budget and complete before the version is visible, so
// concurrent requests never share an arena and nothing is constructed on
// the request path — and starts its micro-batcher; new versions
// blue/green-swap in and retired ones drain without failing in-flight
// requests. A Batcher coalesces concurrent requests for the same version
// into single InvokeBatch calls under an adaptive gather window. The
// models served are the MicroNets/MCUNet-class tiny networks of the
// paper, whose per-request cost is small enough that aggressive
// micro-batching is essentially free latency-wise.
//
// On top of single models, the server mounts the /v2/graphs surface of
// internal/servegraph: declarative inference graphs (cascades, ensembles,
// weighted splits, switches) routed in-process over the same repository,
// with an unload guard so a model referenced by a registered graph cannot
// be dropped out from under it.
package serve
