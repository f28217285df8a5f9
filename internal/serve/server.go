package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"micronets/internal/graph"
	"micronets/internal/obs"
	"micronets/internal/servegraph"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// Config configures a Server.
type Config struct {
	// Models are the zoo names to load at boot; any of them failing to
	// load fails New. Nil means the full servable catalogue, best-effort:
	// models that do not fit the RAM budget are skipped with a warning. A
	// non-nil empty list boots with no models.
	Models []string
	// Options selects the default lowering (bits, seed, softmax).
	Options ModelOptions
	// PoolSize is the desired interpreters per model (default 2); a RAM
	// budget may scale it down per model.
	PoolSize int
	// Deprecated: Batch is ignored; every row runs on its own pooled
	// interpreter.
	Batch BatcherConfig
	// RAMBudgetBytes bounds the summed planned arena bytes across all
	// loaded models (0 = unbudgeted). See RepositoryConfig.
	RAMBudgetBytes int
	// DisableAdmin turns off the /v2/repository control-plane endpoints,
	// freezing the model set like the pre-repository server.
	DisableAdmin bool
	// Logger receives one structured line per request (default
	// slog.Default).
	Logger *slog.Logger
}

const (
	// drainGrace is how long the readiness probe fails before the
	// listener closes, giving load balancers a window to stop routing
	// here instead of seeing connection-refused mid-deploy.
	drainGrace = 500 * time.Millisecond
	// drainTimeout bounds how long in-flight requests get to finish once
	// the listener has closed.
	drainTimeout = 10 * time.Second
)

// Server is the HTTP inference server: the KServe-v2-style data plane
// (health, models, infer, metrics) plus the repository admin control
// plane, all backed by the one Repository it owns. Construct with New
// (which loads and pool-warms the boot models, so readiness implies zero
// cold-start on the request path), mount Handler on any listener, drive
// lifecycles from Go through Repository, and Close to drain.
type Server struct {
	cfg    Config
	repo   *Repository
	graphs *servegraph.Registry
	mux    *http.ServeMux
	log    *slog.Logger
	ready  atomic.Bool
	start  time.Time
}

// New builds the server and its repository and loads the boot models. It
// returns an error if any explicitly requested model cannot be lowered,
// planned, or fit into the budget — a server that constructs is fully
// warm for everything it reports serving.
func New(cfg Config) (*Server, error) {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	repo := NewRepository(RepositoryConfig{
		RAMBudgetBytes: cfg.RAMBudgetBytes,
		PoolSize:       cfg.PoolSize,
		Logger:         cfg.Logger,
	})
	names, wholeCatalogue := cfg.Models, cfg.Models == nil
	if wholeCatalogue {
		names = zoo.ServableNames()
	}
	for _, name := range names {
		if _, err := repo.LoadZoo(name, cfg.Options); err != nil {
			var be *BudgetError
			if wholeCatalogue && errors.As(err, &be) {
				cfg.Logger.Warn("skipping model over RAM budget", "model", name,
					"needed_bytes", be.NeededBytes, "budget_bytes", be.BudgetBytes,
					"planned_bytes", be.PlannedBytes)
				continue
			}
			repo.Close()
			return nil, err
		}
	}
	s := &Server{cfg: cfg, repo: repo, log: cfg.Logger, start: time.Now()}
	s.graphs = servegraph.NewRegistry(GraphBackend(repo))
	repo.SetUnloadGuard(graphUnloadGuard(s.graphs))
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v2/health/live", s.handleLive)
	s.mux.HandleFunc("GET /v2/health/ready", s.handleReady)
	s.mux.HandleFunc("GET /v2/models", s.handleModels)
	s.mux.HandleFunc("GET /v2/models/{name}", s.handleModelMeta)
	s.mux.HandleFunc("GET /v2/models/{name}/profile", s.handleProfile)
	s.mux.HandleFunc("POST /v2/models/{name}/infer", s.handleInfer)
	s.mux.HandleFunc("GET /v2/graphs", s.handleGraphList)
	s.mux.HandleFunc("GET /v2/graphs/{name}", s.handleGraphGet)
	s.mux.HandleFunc("POST /v2/graphs/{name}/infer", s.handleGraphInfer)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if !cfg.DisableAdmin {
		s.mux.HandleFunc("GET /v2/repository/index", s.handleRepoIndex)
		s.mux.HandleFunc("POST /v2/repository/models/{name}/load", s.handleRepoLoad)
		s.mux.HandleFunc("POST /v2/repository/models/{name}/unload", s.handleRepoUnload)
		s.mux.HandleFunc("PUT /v2/graphs/{name}", s.handleGraphPut)
		s.mux.HandleFunc("DELETE /v2/graphs/{name}", s.handleGraphDelete)
	}
	s.ready.Store(true)
	return s, nil
}

// Repository returns the server's control plane, for callers that want to
// drive lifecycles programmatically next to the HTTP admin surface.
func (s *Server) Repository() *Repository { return s.repo }

// Graphs returns the server's inference-graph registry, for callers that
// want to register graphs programmatically next to the HTTP surface.
func (s *Server) Graphs() *servegraph.Registry { return s.graphs }

// Handler returns the fully routed handler wrapped in request logging.
func (s *Server) Handler() http.Handler { return s.logMiddleware(s.mux) }

// Close marks the server not-ready and drains every model: in-flight
// requests finish, new infers fail with 503, and later loads fail with
// ErrRepositoryClosed. Idempotent.
func (s *Server) Close() {
	s.ready.Store(false)
	s.repo.Close()
}

// ListenAndServe serves on addr until ctx is cancelled, then drains: the
// readiness probe fails for a grace window while the listener still
// accepts (so load balancers stop routing here), the listener closes,
// in-flight requests get up to 10 s to finish, and the repository
// drains. This is the SIGTERM path of cmd/serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serve(ctx, ln)
}

func (s *Server) serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	s.log.Info("serving", "addr", ln.Addr().String(), "models", len(s.repo.actives()),
		"ram_budget_bytes", s.repo.RAMBudgetBytes(), "admin", !s.cfg.DisableAdmin)
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	s.ready.Store(false)
	s.log.Info("draining", "grace", drainGrace.String(), "timeout", drainTimeout.String())
	// Fail readiness for a grace window BEFORE closing the listener, so
	// probing load balancers route traffic away instead of hitting
	// connection-refused.
	time.Sleep(drainGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(shutCtx)
	s.Close()
	if err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

// ---- KServe open-inference-protocol (v2) JSON types ----

// v2Tensor is one named tensor in an infer request or response. The
// request side is decoded by codec.go, not through these tags.
type v2Tensor struct {
	Name     string    `json:"name"`
	Shape    []int     `json:"shape"`
	Datatype string    `json:"datatype"`
	Data     []float64 `json:"data"`
}

type v2InferResponse struct {
	ModelName string     `json:"model_name"`
	ID        string     `json:"id,omitempty"`
	Outputs   []v2Tensor `json:"outputs"`
}

type v2Error struct {
	Error string `json:"error"`
}

func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string]bool{"live": true})
}

// handleReady reports readiness plus how many models have a serving
// (READY) version, so a fleet router can tell "up but still empty"
// (ready, models_ready 0) from "serving" during replica warm-up.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	modelsReady := len(s.repo.actives())
	if !s.ready.Load() {
		obs.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "models_ready": modelsReady})
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"ready": true, "models_ready": modelsReady})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	type modelState struct {
		Name    string `json:"name"`
		Task    string `json:"task"`
		State   string `json:"state"`
		Version int    `json:"version"`
	}
	out := make([]modelState, 0)
	for _, st := range s.repo.Index() {
		if st.State == StateReady {
			out = append(out, modelState{Name: st.Name, Task: st.Task, State: string(st.State), Version: st.Version})
		}
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *Server) handleModelMeta(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	v, err := s.repo.acquire(name)
	if err != nil {
		obs.WriteJSON(w, http.StatusNotFound, v2Error{Error: err.Error()})
		return
	}
	defer v.release()
	mod := v.model
	in := mod.Tensors[mod.Input]
	out := mod.Tensors[mod.Output]
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"name":     v.name,
		"versions": []string{fmt.Sprint(v.num)},
		"platform": "micronets-go-tflm",
		"inputs": []map[string]any{{
			"name": "input", "datatype": "FP32",
			"shape": []int{in.H, in.W, in.C},
			"quantization": map[string]any{
				"scale": in.Scale, "zero_point": in.ZeroPoint, "bits": in.Bits,
			},
		}},
		"outputs": []map[string]any{{
			"name": "scores", "datatype": "FP32",
			"shape": []int{out.Elems()},
		}},
		"details": map[string]any{
			"task":                v.task,
			"macs":                mod.TotalMACs(),
			"flash_bytes":         mod.FlashBytes(),
			"arena_bytes":         v.arenaBytes,
			"shared_weight_bytes": v.weightBytes,
			"pool_size":           v.poolSize,
			"planned_ram_bytes":   v.plannedBytes,
		},
	})
}

// handleInfer decodes a v2 infer request, quantizes (or passes through)
// the input rows, runs each row on a pooled interpreter of the serving
// version, and answers with the dequantized score vector plus argmax
// class and top score per row. A leading batch dimension is allowed:
// shape [n, h, w, c] (or data of n×elems values) fans out to n concurrent
// rows, which spread over the pool. The version is pinned for the whole
// request, so a concurrent swap or unload cannot fail rows already being
// served.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		obs.WriteJSON(w, http.StatusServiceUnavailable, v2Error{Error: "server draining"})
		return
	}
	v, err := s.repo.acquire(r.PathValue("name"))
	if err != nil {
		obs.WriteJSON(w, http.StatusNotFound, v2Error{Error: err.Error()})
		return
	}
	defer v.release()
	inT, outT := v.model.Tensors[v.model.Input], v.model.Tensors[v.model.Output]
	decodeStart := time.Now()
	req, n, ok := decodeInfer(w, r, inT, "model "+v.name)
	if !ok {
		return
	}
	defer req.release()
	in, elems := req.Inputs[0], inT.Elems()
	rows := make([][]int8, n)
	for b := range rows {
		if rows[b], err = quantizeRow(inT, in.Datatype, in.Data[b*elems:(b+1)*elems]); err != nil {
			obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: err.Error()})
			return
		}
	}
	v.stats.decode.Observe(time.Since(decodeStart))

	outs := make([][]int8, n)
	for b := range outs {
		outs[b] = make([]int8, outT.Elems())
	}
	if err := eachRow(n, func(b int) error { return v.infer(r.Context(), rows[b], outs[b]) }); err != nil {
		obs.WriteJSON(w, http.StatusInternalServerError, v2Error{Error: err.Error()})
		return
	}

	scores := make([][]float64, n)
	classes := make([]int, n)
	for b, out := range outs {
		scores[b] = dequantize(outT, out)
		for i, q := range out {
			if q > out[classes[b]] {
				classes[b] = i
			}
		}
	}
	resp := v2InferResponse{
		ModelName: v.name,
		ID:        req.ID,
		Outputs:   inferOutputs(scores, classes),
	}
	encodeStart := time.Now()
	obs.WriteJSON(w, http.StatusOK, resp)
	v.stats.encode.Observe(time.Since(encodeStart))
}

// decodeInfer is the one request-decode step behind both infer endpoints:
// bound the body from the input layout (~24 bytes per JSON float for a
// full client batch plus envelope headroom, so one oversized POST cannot
// exhaust server memory), read it into a pooled buffer and decode it in
// one pass (codec.go), require exactly one input tensor and validate its
// shape against the layout. It returns the request and its client batch
// size; the caller releases the request once its response is written. On
// a refusal it has already written the 413/400 and reports ok=false.
// target ("model X", "graph Y") names what the request addressed in shape
// errors.
func decodeInfer(w http.ResponseWriter, r *http.Request, layout *graph.Tensor, target string) (req inferBody, n int, ok bool) {
	limit := int64(1<<16) + 24*int64(layout.Elems())*maxInferRows
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	req, err := readInferBody(r.Body, min(r.ContentLength, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			obs.WriteJSON(w, http.StatusRequestEntityTooLarge, v2Error{Error: fmt.Sprintf(
				"request body exceeds %d bytes (max client batch is %d rows)", tooBig.Limit, maxInferRows)})
			return req, 0, false
		}
		obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: "bad JSON: " + err.Error()})
		return req, 0, false
	}
	if len(req.Inputs) != 1 {
		obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: fmt.Sprintf("want exactly 1 input tensor, got %d", len(req.Inputs))})
		req.release()
		return inferBody{}, 0, false
	}
	n, err = batchRows(req.Inputs[0], layout)
	if err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: fmt.Sprintf("input %q: %v (%s)", req.Inputs[0].Name, err, target)})
		req.release()
		return inferBody{}, 0, false
	}
	return req, n, true
}

// eachRow runs fn for every row of a client batch concurrently — so the
// rows of one request spread over the pooled interpreters — and returns
// the lowest-numbered row's error, if any.
func eachRow(n int, fn func(b int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for b := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[b] = fn(b)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dequantize maps a quantized output vector back to real scores.
func dequantize(t *graph.Tensor, out []int8) []float64 {
	scores := make([]float64, len(out))
	for i, q := range out {
		scores[i] = float64(t.Scale) * float64(int32(q)-t.ZeroPoint)
	}
	return scores
}

// inferOutputs renders per-row answers as the three output tensors both
// infer endpoints return: the flattened score vectors, the class per row
// and that class's score.
func inferOutputs(scores [][]float64, classes []int) []v2Tensor {
	n, elems := len(scores), len(scores[0])
	flat := make([]float64, 0, n*elems)
	class := make([]float64, n)
	top := make([]float64, n)
	for b, row := range scores {
		flat = append(flat, row...)
		class[b] = float64(classes[b])
		top[b] = row[classes[b]]
	}
	return []v2Tensor{
		{Name: "scores", Datatype: "FP32", Shape: []int{n, elems}, Data: flat},
		{Name: "class", Datatype: "INT32", Shape: []int{n}, Data: class},
		{Name: "score", Datatype: "FP32", Shape: []int{n}, Data: top},
	}
}

// maxInferRows caps the leading client-side batch dimension of one infer
// request; the request-body limit is derived from it.
const maxInferRows = 64

// batchRows validates an input tensor's shape and data length against the
// model's input and returns the client batch size. Accepted shapes:
// absent (batch inferred from data length), [elems], [h,w,c], and their
// batched forms [n,elems] / [n,h,w,c]. A shape whose element count or
// layout disagrees with the model is rejected rather than silently
// reinterpreted — the metadata endpoint advertises the layout, so a
// transposed shape is a client bug worth a 400.
func batchRows(in v2Tensor, t *graph.Tensor) (int, error) {
	elems := t.Elems()
	if len(in.Data) == 0 || len(in.Data)%elems != 0 {
		return 0, fmt.Errorf("has %d values, want a multiple of %d", len(in.Data), elems)
	}
	n := len(in.Data) / elems
	if n > maxInferRows {
		return 0, fmt.Errorf("client batch of %d rows exceeds the per-request max of %d", n, maxInferRows)
	}
	if len(in.Shape) == 0 {
		return n, nil
	}
	prod := 1
	for _, d := range in.Shape {
		prod *= d
	}
	if prod != len(in.Data) {
		return 0, fmt.Errorf("shape %v describes %d elements, data has %d", in.Shape, prod, len(in.Data))
	}
	ok := false
	switch s := in.Shape; len(s) {
	case 1:
		ok = s[0] == elems && n == 1
	case 2:
		ok = s[0] == n && s[1] == elems
	case 3:
		ok = s[0] == t.H && s[1] == t.W && s[2] == t.C && n == 1
	case 4:
		ok = s[0] == n && s[1] == t.H && s[2] == t.W && s[3] == t.C
	}
	if !ok {
		return 0, fmt.Errorf("shape %v incompatible with model input [%d %d %d]", in.Shape, t.H, t.W, t.C)
	}
	return n, nil
}

// quantizeRow converts one input row to the quantized domain of the
// model's input tensor: FP32 rows go through tflm.QuantizeInput (the same
// affine quantization as Interpreter.SetInputFloat), INT8 rows are
// range-checked and passed through raw.
func quantizeRow(in *graph.Tensor, datatype string, data []float64) ([]int8, error) {
	row := make([]int8, len(data))
	switch datatype {
	case "", "FP32":
		for i, v := range data {
			row[i] = tflm.QuantizeInput(in, v)
		}
	case "INT8":
		// The quantizer saturates, so the infinities read back the
		// tensor's representable range.
		lo, hi := tflm.QuantizeInput(in, math.Inf(-1)), tflm.QuantizeInput(in, math.Inf(1))
		for i, v := range data {
			if v != math.Trunc(v) || v < float64(lo) || v > float64(hi) {
				return nil, fmt.Errorf("INT8 input value %v out of range [%d,%d]", v, lo, hi)
			}
			row[i] = int8(v)
		}
	default:
		return nil, fmt.Errorf("unsupported datatype %q (want FP32 or INT8)", datatype)
	}
	return row, nil
}

// logMiddleware stamps every request with a trace ID (honoring an
// inbound X-Micronets-Trace-Id so multi-hop setups correlate), emits one
// structured line per request, and — when the client opts in by sending
// an X-Micronets-Trace header — collects a full span tree and returns it
// as JSON in the X-Micronets-Trace response header.
func (s *Server) logMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID := obs.RequestTraceID(r)
		ctx := obs.ContextWithTraceID(r.Context(), traceID)
		sw := &obs.StatusWriter{ResponseWriter: w}
		sw.Header().Set("X-Micronets-Trace-Id", traceID)
		if r.Header.Get("X-Micronets-Trace") != "" {
			tr := obs.NewTraceWithID(traceID)
			root := tr.Start("request", nil)
			root.SetAttr("method", r.Method)
			root.SetAttr("path", r.URL.Path)
			ctx = obs.ContextWithTrace(ctx, tr)
			ctx = obs.ContextWithSpan(ctx, root)
			sw.BeforeHeader = func() {
				root.End()
				if js, err := json.Marshal(tr.Spans()); err == nil {
					sw.Header().Set("X-Micronets-Trace", string(js))
				}
			}
		}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.Status(),
			"bytes", sw.Bytes,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
			"trace", traceID,
		)
	})
}
