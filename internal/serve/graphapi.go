package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"micronets/internal/graph"
	"micronets/internal/obs"
	"micronets/internal/servegraph"
)

// ModelInUseError rejects an Unload of a model that something — an
// inference graph — still references. The admin API renders it as a
// structured 409: delete or re-point the holders first.
type ModelInUseError struct {
	Model string
	// Holders names the graphs referencing the model.
	Holders []string
}

func (e *ModelInUseError) Error() string {
	return fmt.Sprintf("serve: model %q is referenced by graph(s) %s; delete them before unloading",
		e.Model, strings.Join(e.Holders, ", "))
}

// graphBackend adapts Repository to servegraph.Backend: resolve a serving
// version's metadata, and run one float row on one of its pooled
// interpreters with the model's own input quantization.
type graphBackend struct{ repo *Repository }

// GraphBackend returns the servegraph routing surface of a repository —
// the backend a servegraph.Registry routes over.
func GraphBackend(r *Repository) servegraph.Backend { return graphBackend{repo: r} }

func (b graphBackend) ModelInfo(name string) (servegraph.ModelInfo, error) {
	v, err := b.repo.acquire(name)
	if err != nil {
		return servegraph.ModelInfo{}, err
	}
	defer v.release()
	in, out := v.model.Tensors[v.model.Input], v.model.Tensors[v.model.Output]
	return servegraph.ModelInfo{
		Name:        v.name,
		Version:     v.num,
		Task:        v.task,
		InputH:      in.H,
		InputW:      in.W,
		InputC:      in.C,
		OutputElems: out.Elems(),
		Softmax:     v.key.opts.AppendSoftmax,
	}, nil
}

func (b graphBackend) Infer(ctx context.Context, name string, x []float64) (servegraph.Scored, error) {
	v, err := b.repo.acquire(name)
	if err != nil {
		return servegraph.Scored{}, err
	}
	defer v.release()
	inT := v.model.Tensors[v.model.Input]
	if want := inT.Elems(); len(x) != want {
		return servegraph.Scored{}, fmt.Errorf("serve: model %s: graph input has %d elements, want %d", v.name, len(x), want)
	}
	row, err := quantizeRow(inT, "FP32", x)
	if err != nil {
		return servegraph.Scored{}, err
	}
	outT := v.model.Tensors[v.model.Output]
	out := make([]int8, outT.Elems())
	if err := v.infer(ctx, row, out); err != nil {
		return servegraph.Scored{}, err
	}
	scores := dequantize(outT, out)
	probs := scores
	if !v.key.opts.AppendSoftmax {
		probs = servegraph.Softmax(scores)
	}
	return servegraph.Scored{Model: v.name, Version: v.num, Scores: scores, Probs: probs}, nil
}

// graphUnloadGuard builds the Repository hook a server installs so Unload
// of a model referenced by a registered graph 409s instead of silently
// breaking the graph.
func graphUnloadGuard(graphs *servegraph.Registry) func(model string) error {
	return func(model string) error {
		if holders := graphs.Referenced(model); len(holders) > 0 {
			return &ModelInUseError{Model: model, Holders: holders}
		}
		return nil
	}
}

// ---- /v2/graphs HTTP surface ----

// graphError is the structured 4xx body for graph registration and infer
// failures.
type graphError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Graph string `json:"graph,omitempty"`
	Node  string `json:"node,omitempty"`
	Model string `json:"model,omitempty"`
}

// writeGraphError maps router errors onto HTTP statuses: invalid or
// dangling specs → structured 400/404, stale version pins and in-use
// conflicts → 409, unknown graphs → 404.
func writeGraphError(w http.ResponseWriter, err error) {
	var ve *servegraph.ValidationError
	if errors.As(err, &ve) {
		code := http.StatusBadRequest
		if ve.Code == "unknown_model" {
			code = http.StatusNotFound
		}
		obs.WriteJSON(w, code, graphError{Error: err.Error(), Code: ve.Code, Graph: ve.Graph, Node: ve.Node, Model: ve.Model})
		return
	}
	var nf *servegraph.NotFoundError
	if errors.As(err, &nf) {
		obs.WriteJSON(w, http.StatusNotFound, graphError{Error: err.Error(), Code: "unknown_graph", Graph: nf.Graph})
		return
	}
	var sv *servegraph.StaleVersionError
	if errors.As(err, &sv) {
		obs.WriteJSON(w, http.StatusConflict, graphError{Error: err.Error(), Code: "stale_version", Graph: sv.Graph, Model: sv.Model})
		return
	}
	var re *servegraph.RouteError
	if errors.As(err, &re) {
		obs.WriteJSON(w, http.StatusBadRequest, graphError{Error: err.Error(), Code: "unknown_route", Graph: re.Graph, Node: re.Node})
		return
	}
	var nl *NotLoadedError
	if errors.As(err, &nl) {
		// A referenced model was unloaded out-of-band (guard disabled or
		// programmatic bypass): surface it as a conflict, not a 500.
		obs.WriteJSON(w, http.StatusConflict, graphError{Error: err.Error(), Code: "model_not_loaded", Model: nl.Model})
		return
	}
	obs.WriteJSON(w, http.StatusInternalServerError, v2Error{Error: err.Error()})
}

// handleGraphList answers GET /v2/graphs with every graph's stats.
func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string]any{"graphs": s.graphs.Snapshot()})
}

// handleGraphGet answers GET /v2/graphs/{name} with the spec + stats.
func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	g, err := s.graphs.Get(r.PathValue("name"))
	if err != nil {
		writeGraphError(w, err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{"spec": g.Spec(), "stats": g.Stats()})
}

// handleGraphPut registers (or replaces) a graph after validating it
// against the live repository index. The body is one JSON value: bytes
// other than whitespace after it are refused.
func (s *Server) handleGraphPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var spec servegraph.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	err := dec.Decode(&spec)
	if err == nil {
		// Only whitespace may follow: the next read must be the body's end.
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("unexpected data after the spec")
		}
	}
	if err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: "bad JSON: " + err.Error()})
		return
	}
	if spec.Name == "" {
		spec.Name = name
	}
	if spec.Name != name {
		obs.WriteJSON(w, http.StatusBadRequest, graphError{Error: fmt.Sprintf(
			"spec is named %q, URL says %q", spec.Name, name), Code: "invalid_graph", Graph: spec.Name})
		return
	}
	g, err := s.graphs.Put(&spec)
	if err != nil {
		writeGraphError(w, err)
		return
	}
	s.log.Info("graph registered", "graph", name, "revision", g.Revision(), "models", g.Models())
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"name": name, "revision": g.Revision(), "models": g.Models(),
		"input_shape": []int{g.InputH, g.InputW, g.InputC},
	})
}

// handleGraphDelete removes a graph, releasing its model references.
func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.graphs.Delete(name); err != nil {
		writeGraphError(w, err)
		return
	}
	s.log.Info("graph deleted", "graph", name)
	obs.WriteJSON(w, http.StatusOK, map[string]any{"name": name, "deleted": true})
}

// handleGraphInfer routes a v2-style infer request through a graph. The
// body matches POST /v2/models/{name}/infer plus an optional
// parameters.route string that switch nodes match on; a leading batch
// dimension fans out to concurrent row evaluations. The response reports
// the same scores/class/score outputs plus which leaf answered each row
// and how many cascade stages it escalated through.
func (s *Server) handleGraphInfer(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		obs.WriteJSON(w, http.StatusServiceUnavailable, v2Error{Error: "server draining"})
		return
	}
	name := r.PathValue("name")
	g, err := s.graphs.Get(name)
	if err != nil {
		writeGraphError(w, err)
		return
	}
	layout := &graph.Tensor{H: g.InputH, W: g.InputW, C: g.InputC}
	req, n, ok := decodeInfer(w, r, layout, "graph "+name)
	if !ok {
		return
	}
	defer req.release()
	in, elems := req.Inputs[0], layout.Elems()
	if in.Datatype != "" && in.Datatype != "FP32" {
		obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: fmt.Sprintf(
			"unsupported datatype %q (graphs re-quantize per node; send FP32)", in.Datatype)})
		return
	}
	route := req.Parameters["route"]

	results := make([]*servegraph.Result, n)
	err = eachRow(n, func(b int) (err error) {
		results[b], err = g.Infer(r.Context(), in.Data[b*elems:(b+1)*elems], route)
		return err
	})
	if err != nil {
		writeGraphError(w, err)
		return
	}

	scores := make([][]float64, n)
	classes := make([]int, n)
	servedBy := make([]string, n)
	escalations := make([]int, n)
	for b, res := range results {
		scores[b], classes[b] = res.Scores, res.Class
		servedBy[b] = res.ServedBy
		escalations[b] = res.Escalations
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"model_name":  name,
		"id":          req.ID,
		"outputs":     inferOutputs(scores, classes),
		"served_by":   servedBy,
		"escalations": escalations,
	})
}
