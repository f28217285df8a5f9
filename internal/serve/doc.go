// Package serve is the HTTP inference-serving subsystem: a KServe-v2-style
// JSON protocol (health, model listing, metadata, infer) layered over the
// repo's int8 TFLM-style runtime. The data path is
//
//	repository → interpreter pool → Invoke → kernels engine
//
// A Repository is the versioned control plane, and a repository version
// is the package's one loaded-model concept: it lowers a requested
// architecture once (identified by spec fingerprint + lowering options),
// prepares its kernels and builds a fixed interpreter pool — sized
// against the RAM budget and complete before the version is visible, so
// concurrent requests never share an arena and nothing is constructed on
// the request path; new versions blue/green-swap in and retired ones
// drain without failing in-flight requests. Every input row runs as one
// batch-1 Invoke on a free pooled interpreter, the way the paper deploys
// each MicroNet on a microcontroller: a row waits only while every
// interpreter of its version is busy, and the budget charges exactly the
// arena each interpreter allocates.
//
// On top of single models, the server mounts the /v2/graphs surface of
// internal/servegraph: declarative inference graphs (cascades, ensembles,
// weighted splits, switches) routed in-process over the same repository,
// with an unload guard so a model referenced by a registered graph cannot
// be dropped out from under it.
//
// Both infer endpoints decode their body in one step, decodeInfer, over
// the one-pass decoder in codec.go: the bounded body is read into a
// pooled buffer and walked once, each data value read by one scan that
// checks the JSON number grammar and rounds the value exactly (a literal
// past 19 digits or with a large exponent falls back to
// strconv.ParseFloat) straight into a pooled []float64, with no
// encoding/json tree in between. It accepts exactly what encoding/json
// would, with the same values, except that it refuses a member repeated
// in one object (FuzzInferDecodeMatchesStdlib holds it to that).
// Responses, a few hundred bytes, go out through encoding/json.
//
// Files: repository.go is the model lifecycle and RAM budgeting,
// server.go the server's own lifecycle (boot, serve, drain) and the
// data plane, codec.go the infer-body decoder, admin.go the
// /v2/repository control plane.
package serve
