package mesh

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// fakeReplica emulates the slice of the cmd/serve surface the router
// talks to: health, repository index with budget accounting, loads
// that 409 over budget, unloads, infer, and a minimal graph API.
type fakeReplica struct {
	tag string // echoed in infer responses to identify who answered

	mu      sync.Mutex
	budget  int            // 0 = unbudgeted
	costs   map[string]int // model name → bytes a load would plan
	models  map[string]bool
	graphs  map[string][]string // graph name → referenced models
	planned int
	// faults maps a route pattern (as registered below) to a fault mode
	// (see faulty); hits counts requests per pattern, faulted or not.
	faults map[string]string
	hits   map[string]int
	// lieFree, when set, is what the index advertises as free_bytes
	// regardless of the real budget the load handler enforces.
	lieFree *int
	// sawTrace records the last X-Micronets-Trace request header the
	// metadata route received.
	sawTrace string

	release chan struct{} // closed at cleanup: unblocks "slow" handlers
	srv     *httptest.Server
}

// Route patterns the fault table addresses.
const (
	routeInfer      = "POST /v2/models/{name}/infer"
	routeGraphInfer = "POST /v2/graphs/{name}/infer"
	routeLoad       = "POST /v2/repository/models/{name}/load"
	routeGraphPut   = "PUT /v2/graphs/{name}"
)

func newFakeReplica(t *testing.T, tag string, budget int, costs map[string]int) *fakeReplica {
	t.Helper()
	f := &fakeReplica{
		tag:     tag,
		budget:  budget,
		costs:   costs,
		models:  map[string]bool{},
		graphs:  map[string][]string{},
		faults:  map[string]string{},
		hits:    map[string]int{},
		release: make(chan struct{}),
	}
	mux := http.NewServeMux()
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /v2/health/ready":                     f.handleReady,
		"GET /v2/repository/index":                 f.handleIndex,
		"GET /v2/graphs":                           f.handleGraphList,
		routeLoad:                                  f.handleLoad,
		"POST /v2/repository/models/{name}/unload": f.handleUnload,
		"GET /v2/models/{name}":                    f.handleMeta,
		routeInfer:                                 f.handleInfer,
		routeGraphPut:                              f.handleGraphPut,
		routeGraphInfer:                            f.handleGraphInfer,
		"DELETE /v2/graphs/{name}":                 f.handleGraphDelete,
	} {
		mux.HandleFunc(pattern, f.faulty(pattern, h))
	}
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	t.Cleanup(func() { close(f.release) }) // runs before srv.Close, which waits for handlers
	return f
}

func (f *fakeReplica) url() string { return f.srv.URL }

// faulty wraps one route: it counts the hit, then either serves the
// healthy handler or injects the route's fault mode:
//
//   - reset: hijack the connection and close it without a response
//   - half-body: declare a Content-Length, write half of it, close
//   - slow: hold the response until the caller gives up
//   - oversize: a well-formed 200 whose body streams past maxBodyBytes
func (f *fakeReplica) faulty(pattern string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.hits[pattern]++
		mode := f.faults[pattern]
		f.mu.Unlock()
		switch mode {
		case "":
			next(w, r)
		case "reset":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case "half-body":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", "64")
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, `{"served_by":"half of a bod`) // the server drops the connection on the short write
		case "slow":
			io.Copy(io.Discard, r.Body) // lets the server notice the caller hanging up
			select {
			case <-r.Context().Done():
			case <-f.release:
			}
		case "oversize":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"served_by":%q,"pad":"%s"}`, f.tag, strings.Repeat("x", int(maxBodyBytes)))
		default:
			panic("fakeReplica: unknown fault mode " + mode)
		}
	}
}

func (f *fakeReplica) setFault(pattern, mode string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults[pattern] = mode
}

func (f *fakeReplica) hitCount(pattern string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[pattern]
}

func (f *fakeReplica) putGraphDirect(name string, models ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.graphs[name] = models
}

func (f *fakeReplica) loadDirect(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.models[name] = true
	f.planned += f.costs[name]
}

func (f *fakeReplica) unloadDirect(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.models[name] {
		delete(f.models, name)
		f.planned -= f.costs[name]
	}
}

func (f *fakeReplica) holds(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.models[name]
}

func (f *fakeReplica) handleReady(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	n := len(f.models)
	f.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "models_ready": n})
}

func (f *fakeReplica) handleIndex(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rows := []map[string]any{}
	for name := range f.models {
		rows = append(rows, map[string]any{
			"name": name, "state": "READY", "task": "test", "version": 1,
			"planned_ram_bytes": f.costs[name],
		})
	}
	free := -1
	if f.budget > 0 {
		free = f.budget - f.planned
	}
	if f.lieFree != nil {
		free = *f.lieFree
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"models":            rows,
		"ram_budget_bytes":  f.budget,
		"ram_planned_bytes": f.planned,
		"free_bytes":        free,
	})
}

func (f *fakeReplica) handleGraphList(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rows := []map[string]any{}
	for name, models := range f.graphs {
		rows = append(rows, map[string]any{"name": name, "models": models})
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": rows})
}

func (f *fakeReplica) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	f.mu.Lock()
	defer f.mu.Unlock()
	cost := f.costs[name]
	if cost == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "unknown model " + name})
		return
	}
	if !f.models[name] && f.budget > 0 && f.planned+cost > f.budget {
		writeJSON(w, http.StatusConflict, budget409{
			Error:        fmt.Sprintf("model %s needs %d bytes, budget %d", name, cost, f.budget),
			Code:         "ram_budget_exceeded",
			Model:        name,
			NeededBytes:  cost,
			BudgetBytes:  f.budget,
			PlannedBytes: f.planned,
			FreeBytes:    f.budget - f.planned,
		})
		return
	}
	if !f.models[name] {
		f.models[name] = true
		f.planned += cost
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "state": "READY"})
}

func (f *fakeReplica) handleUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.models[name] {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "not loaded"})
		return
	}
	delete(f.models, name)
	f.planned -= f.costs[name]
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "state": "UNLOADED"})
}

func (f *fakeReplica) handleMeta(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !f.holds(name) {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown model " + name})
		return
	}
	if tr := r.Header.Get("X-Micronets-Trace"); tr != "" {
		f.mu.Lock()
		f.sawTrace = tr
		f.mu.Unlock()
		w.Header().Set("X-Micronets-Trace", `[{"name":"fake-span"}]`)
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "platform": "fake"})
}

func (f *fakeReplica) handleInfer(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !f.holds(name) {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown model " + name})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"model_name": name, "served_by": f.tag})
}

func (f *fakeReplica) handleGraphPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var spec struct {
		Models []string `json:"models"`
	}
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad JSON"})
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range spec.Models {
		if !f.models[m] {
			writeJSON(w, http.StatusNotFound, map[string]any{
				"error": "unknown model " + m, "code": "unknown_model"})
			return
		}
	}
	f.graphs[name] = spec.Models
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "revision": 1})
}

func (f *fakeReplica) handleGraphInfer(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	f.mu.Lock()
	_, ok := f.graphs[name]
	f.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown graph " + name})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"graph": name, "served_by": f.tag})
}

func (f *fakeReplica) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.graphs[name]; !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown graph"})
		return
	}
	delete(f.graphs, name)
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "deleted": true})
}

// newTestRouter builds a router over the fakes with a dormant health
// loop (tests drive probes explicitly via probeAll / setUp).
func newTestRouter(t *testing.T, fakes ...*fakeReplica) *Router {
	t.Helper()
	return newTestRouterWith(t, func(*Config) {}, fakes...)
}

// newTestRouterWith is newTestRouter with the test's own Config edits.
func newTestRouterWith(t *testing.T, edit func(*Config), fakes ...*fakeReplica) *Router {
	t.Helper()
	urls := make([]string, len(fakes))
	for i, f := range fakes {
		urls[i] = f.url()
	}
	cfg := Config{
		Replicas:       urls,
		HealthInterval: time.Hour, // tests probe explicitly
		RetryBackoff:   time.Millisecond,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	edit(&cfg)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// keyOwnedBy finds a model name whose ring walk starts at the given
// replica, so spill/retry tests are deterministic regardless of how the
// ephemeral httptest URLs hash.
func keyOwnedBy(t *testing.T, rt *Router, url, prefix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if owner(rt.ring, k) == url {
			return k
		}
	}
	t.Fatal("no key found owned by " + url)
	return ""
}

func doReq(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := map[string]any{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON body %q", method, path, rec.Body.String())
	}
	return rec, out
}

// TestPlacementSpillsToFreeReplica forces the affinity owner to be the
// full replica: the load must spill to the replica with headroom, and
// the spill must be visible in the per-replica counters.
func TestPlacementSpillsToFreeReplica(t *testing.T) {
	costs := map[string]int{}
	a := newFakeReplica(t, "A", 100, costs)
	b := newFakeReplica(t, "B", 1000, costs)
	rt := newTestRouter(t, a, b)
	model := keyOwnedBy(t, rt, a.url(), "spill")
	costs[model] = 500 // fits B, not A

	rec, _ := doReq(t, rt.Handler(), "POST", "/v2/repository/models/"+model+"/load", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("load = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Micronets-Replica"); got != b.url() {
		t.Errorf("placed on %s, want %s", got, b.url())
	}
	if !b.holds(model) || a.holds(model) {
		t.Errorf("model on A=%v B=%v; want B only", a.holds(model), b.holds(model))
	}
	if got := rt.byURL[a.url()].spills.Load(); got != 1 {
		t.Errorf("A spills = %d, want 1", got)
	}
	if got := rt.byURL[b.url()].placements.Load(); got != 1 {
		t.Errorf("B placements = %d, want 1", got)
	}
	// The synchronous post-placement refresh makes the new model visible
	// in the merged index immediately.
	rec, idx := doReq(t, rt.Handler(), "GET", "/v2/repository/index", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("index = %d", rec.Code)
	}
	found := false
	for _, row := range idx["models"].([]any) {
		m := row.(map[string]any)
		if m["name"] == model && m["replica"] == b.url() {
			found = true
		}
	}
	if !found {
		t.Errorf("merged index lacks %s on %s: %v", model, b.url(), idx["models"])
	}
}

// TestPlacementFleetwide409 checks the router's own 409 once every
// replica has spilled, and that the pre-skip path (free_bytes <
// needed hint) counts as a spill without an HTTP call.
func TestPlacementFleetwide409(t *testing.T) {
	costs := map[string]int{}
	a := newFakeReplica(t, "A", 100, costs)
	b := newFakeReplica(t, "B", 1000, costs)
	rt := newTestRouter(t, a, b)
	model := keyOwnedBy(t, rt, a.url(), "huge")
	costs[model] = 5000 // fits nothing

	rec, body := doReq(t, rt.Handler(), "POST", "/v2/repository/models/"+model+"/load", nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("load = %d, want 409; body %s", rec.Code, rec.Body.String())
	}
	if body["code"] != "ram_budget_exceeded" {
		t.Errorf("code = %v", body["code"])
	}
	if body["needed_bytes"].(float64) != 5000 {
		t.Errorf("needed_bytes = %v, want 5000", body["needed_bytes"])
	}
	if rt.placeFails.Load() != 1 {
		t.Errorf("placement failures = %d, want 1", rt.placeFails.Load())
	}
	// B was pre-skipped off the 409 hint: spill counted, no load call.
	if got := rt.byURL[b.url()].spills.Load(); got != 1 {
		t.Errorf("B spills = %d, want 1 (free_bytes pre-skip)", got)
	}
	if b.holds(model) {
		t.Error("model must not land anywhere")
	}
}

// TestLoadAffinity: with headroom everywhere, the load lands on the
// ring owner.
func TestLoadAffinity(t *testing.T) {
	costs := map[string]int{}
	a := newFakeReplica(t, "A", 0, costs)
	b := newFakeReplica(t, "B", 0, costs)
	rt := newTestRouter(t, a, b)
	model := keyOwnedBy(t, rt, b.url(), "aff")
	costs[model] = 10

	rec, _ := doReq(t, rt.Handler(), "POST", "/v2/repository/models/"+model+"/load", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("load = %d", rec.Code)
	}
	if !b.holds(model) || a.holds(model) {
		t.Errorf("affinity owner is %s but model on A=%v B=%v", b.url(), a.holds(model), b.holds(model))
	}
}

// TestInferRetriesOnAlternateReplica kills the affinity-preferred
// replica's listener: the proxied infer must fail over to the survivor
// within one request.
func TestInferRetriesOnAlternateReplica(t *testing.T) {
	costs := map[string]int{}
	a := newFakeReplica(t, "A", 0, costs)
	b := newFakeReplica(t, "B", 0, costs)
	rt := newTestRouter(t, a, b)
	model := keyOwnedBy(t, rt, a.url(), "retry")
	costs[model] = 10
	a.loadDirect(model)
	b.loadDirect(model)
	rt.probeAll(1) // pick up both holders

	a.srv.Close() // connection failures from now on; A still marked up

	rec, body := doReq(t, rt.Handler(), "POST", "/v2/models/"+model+"/infer", map[string]any{"inputs": []any{}})
	if rec.Code != http.StatusOK {
		t.Fatalf("infer = %d, body %s", rec.Code, rec.Body.String())
	}
	if body["served_by"] != "B" {
		t.Errorf("served_by = %v, want B", body["served_by"])
	}
	if rt.retries.Load() == 0 {
		t.Error("retry counter did not move")
	}
	if rt.byURL[a.url()].errors.Load() == 0 {
		t.Error("A error counter did not move")
	}
}

// TestInferStaleView404FallsThrough: the router's view says A holds the
// model but A has already dropped it — the 404 must fall through to the
// real holder instead of surfacing.
func TestInferStaleView404FallsThrough(t *testing.T) {
	costs := map[string]int{}
	a := newFakeReplica(t, "A", 0, costs)
	b := newFakeReplica(t, "B", 0, costs)
	rt := newTestRouter(t, a, b)
	model := keyOwnedBy(t, rt, a.url(), "stale")
	costs[model] = 10
	a.loadDirect(model)
	b.loadDirect(model)
	rt.probeAll(1)
	a.unloadDirect(model) // behind the router's back

	rec, body := doReq(t, rt.Handler(), "POST", "/v2/models/"+model+"/infer", map[string]any{"inputs": []any{}})
	if rec.Code != http.StatusOK {
		t.Fatalf("infer = %d, body %s", rec.Code, rec.Body.String())
	}
	if body["served_by"] != "B" {
		t.Errorf("served_by = %v, want B", body["served_by"])
	}
	// A model on no replica is a plain 404.
	rec, _ = doReq(t, rt.Handler(), "POST", "/v2/models/definitely-absent/infer", map[string]any{"inputs": []any{}})
	if rec.Code != http.StatusNotFound {
		t.Errorf("absent model infer = %d, want 404", rec.Code)
	}
}

// TestUnloadFansOutToHolders: an unload through the router removes the
// model from every replica holding it; unloading a model nobody holds
// is a 404.
func TestUnloadFansOutToHolders(t *testing.T) {
	costs := map[string]int{"m": 10}
	a := newFakeReplica(t, "A", 0, costs)
	b := newFakeReplica(t, "B", 0, costs)
	rt := newTestRouter(t, a, b)
	a.loadDirect("m")
	b.loadDirect("m")
	rt.probeAll(1)

	rec, body := doReq(t, rt.Handler(), "POST", "/v2/repository/models/m/unload", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("unload = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := len(body["unloaded_from"].([]any)); got != 2 {
		t.Errorf("unloaded_from %d replicas, want 2", got)
	}
	if a.holds("m") || b.holds("m") {
		t.Error("model still loaded somewhere")
	}
	rec, _ = doReq(t, rt.Handler(), "POST", "/v2/repository/models/m/unload", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("second unload = %d, want 404", rec.Code)
	}
}

// TestMergedViewsAndReady checks the fleet union surfaces and the
// readiness aggregate across health flips.
func TestMergedViewsAndReady(t *testing.T) {
	costs := map[string]int{"only-a": 10, "only-b": 20, "shared": 5}
	a := newFakeReplica(t, "A", 0, costs)
	b := newFakeReplica(t, "B", 1000, costs)
	rt := newTestRouter(t, a, b)
	a.loadDirect("only-a")
	a.loadDirect("shared")
	b.loadDirect("only-b")
	b.loadDirect("shared")
	rt.probeAll(1)

	rec, body := doReq(t, rt.Handler(), "GET", "/v2/models", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("models = %d", rec.Code)
	}
	var names []string
	for _, m := range body["models"].([]any) {
		names = append(names, m.(map[string]any)["name"].(string))
	}
	if got := strings.Join(names, ","); got != "only-a,only-b,shared" {
		t.Errorf("fleet model union = %s", got)
	}

	rec, body = doReq(t, rt.Handler(), "GET", "/v2/health/ready", nil)
	if rec.Code != http.StatusOK || body["ready"] != true {
		t.Fatalf("ready = %d %v", rec.Code, body)
	}
	if body["replicas_up"].(float64) != 2 || body["models_ready"].(float64) != 3 {
		t.Errorf("ready body = %v", body)
	}

	// Mixed budgets: one unbudgeted replica makes the fleet totals
	// unbounded (-1), matching the single-replica convention.
	rec, idx := doReq(t, rt.Handler(), "GET", "/v2/repository/index", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("index = %d", rec.Code)
	}
	if idx["ram_budget_bytes"].(float64) != -1 || idx["free_bytes"].(float64) != -1 {
		t.Errorf("fleet totals = %v / %v, want -1 / -1", idx["ram_budget_bytes"], idx["free_bytes"])
	}
	if got := len(idx["replicas"].([]any)); got != 2 {
		t.Errorf("replica summaries = %d, want 2", got)
	}
	// models_ready is derived from the view: each replica holds its own
	// model plus the shared one.
	for _, row := range idx["replicas"].([]any) {
		if got := row.(map[string]any)["models_ready"].(float64); got != 2 {
			t.Errorf("replica summary %v: models_ready = %v, want 2", row, got)
		}
	}

	// All replicas down → 503, not ready.
	for _, rep := range rt.replicas {
		rep.setUp(false)
	}
	rec, body = doReq(t, rt.Handler(), "GET", "/v2/health/ready", nil)
	if rec.Code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Errorf("all-down ready = %d %v", rec.Code, body)
	}
	rec, _ = doReq(t, rt.Handler(), "POST", "/v2/models/shared/infer", map[string]any{})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("all-down infer = %d, want 503", rec.Code)
	}
}

// TestGraphPutPlacesWhereModelsLive: a graph registration spills off
// replicas lacking the referenced models and lands where they live;
// graph infer then routes there.
func TestGraphPutPlacesWhereModelsLive(t *testing.T) {
	costs := map[string]int{"gm": 10}
	a := newFakeReplica(t, "A", 0, costs)
	b := newFakeReplica(t, "B", 0, costs)
	rt := newTestRouter(t, a, b)
	b.loadDirect("gm")
	rt.probeAll(1)
	graph := keyOwnedBy(t, rt, a.url(), "graph") // affinity prefers the wrong replica

	rec, _ := doReq(t, rt.Handler(), "PUT", "/v2/graphs/"+graph, map[string]any{"models": []string{"gm"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("graph put = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Micronets-Replica"); got != b.url() {
		t.Errorf("graph placed on %s, want %s", got, b.url())
	}
	rec, body := doReq(t, rt.Handler(), "POST", "/v2/graphs/"+graph+"/infer", map[string]any{})
	if rec.Code != http.StatusOK || body["served_by"] != "B" {
		t.Errorf("graph infer = %d %v, want 200 via B", rec.Code, body)
	}
	// Merged graph list includes it after the post-placement refresh.
	rec, gl := doReq(t, rt.Handler(), "GET", "/v2/graphs", nil)
	if rec.Code != http.StatusOK || len(gl["graphs"].([]any)) != 1 {
		t.Errorf("fleet graph list = %d %v", rec.Code, gl)
	}
	rec, _ = doReq(t, rt.Handler(), "DELETE", "/v2/graphs/"+graph, nil)
	if rec.Code != http.StatusOK {
		t.Errorf("graph delete = %d", rec.Code)
	}
}

// TestTraceIDPropagation: an inbound trace ID and the span-capture
// opt-in survive the proxy hop, and an ID is minted when absent.
func TestTraceIDPropagation(t *testing.T) {
	costs := map[string]int{"m": 10}
	a := newFakeReplica(t, "A", 0, costs)
	rt := newTestRouter(t, a)
	a.loadDirect("m")
	rt.probeAll(1)

	req := httptest.NewRequest("GET", "/v2/models/m", nil)
	req.Header.Set("X-Micronets-Trace-Id", "trace-in")
	req.Header.Set("X-Micronets-Trace", "1")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Micronets-Trace-Id"); got != "trace-in" {
		t.Errorf("trace id = %q, want trace-in", got)
	}
	// The span-capture opt-in crosses the hop and the replica's span
	// tree comes back through the front door.
	a.mu.Lock()
	saw := a.sawTrace
	a.mu.Unlock()
	if saw != "1" {
		t.Errorf("replica saw X-Micronets-Trace = %q, want 1", saw)
	}
	if got := rec.Header().Get("X-Micronets-Trace"); !strings.Contains(got, "fake-span") {
		t.Errorf("relayed X-Micronets-Trace = %q, want the replica's span tree", got)
	}
	rec2 := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec2, httptest.NewRequest("GET", "/v2/models/m", nil))
	if rec2.Header().Get("X-Micronets-Trace-Id") == "" {
		t.Error("no trace id minted")
	}
}

// TestMetricsRender sanity-checks the micronets_mesh_* exposition:
// family heads present, per-replica series labeled, counters moved.
func TestMetricsRender(t *testing.T) {
	costs := map[string]int{"m": 10}
	a := newFakeReplica(t, "A", 100, costs)
	rt := newTestRouter(t, a)
	a.loadDirect("m")
	rt.probeAll(1)
	doReq(t, rt.Handler(), "POST", "/v2/models/m/infer", map[string]any{})

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	page := rec.Body.String()
	for _, want := range []string{
		"micronets_mesh_replicas 1",
		"micronets_mesh_replicas_up 1",
		"micronets_mesh_replica_up{replica=",
		fmt.Sprintf("micronets_mesh_replica_models_ready{replica=%q} 1", a.url()),
		"micronets_mesh_replica_requests_total{replica=",
		"micronets_mesh_request_latency_seconds_bucket",
		"# TYPE micronets_mesh_request_latency_seconds histogram",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page lacks %q", want)
		}
	}
}

// TestConcurrentInferStorm hammers the data plane while one replica
// flaps up/down, under -race: no panics, and every response is either a
// success (served by a live replica) or a clean routing error.
func TestConcurrentInferStorm(t *testing.T) {
	costs := map[string]int{"m": 10}
	a := newFakeReplica(t, "A", 0, costs)
	b := newFakeReplica(t, "B", 0, costs)
	rt := newTestRouter(t, a, b)
	a.loadDirect("m")
	b.loadDirect("m")
	rt.probeAll(1)

	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() { // single flipper: hysteresis counters are not data-path state
		defer flips.Done()
		rep := rt.byURL[a.url()]
		for i := 0; ; i++ {
			select {
			case <-stop:
				rep.setUp(true)
				return
			default:
				rep.setUp(i%2 == 0)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan string, 1024)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Post(front.URL+"/v2/models/m/infer", "application/json",
					strings.NewReader(`{"inputs":[]}`))
				if err != nil {
					errs <- err.Error()
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d", resp.StatusCode)
				}
				drainClose(resp.Body)
			}
		}()
	}
	wg.Wait()
	close(stop)
	flips.Wait()
	close(errs)
	// B stays up throughout, so every request must succeed: a flap of A
	// is at worst one extra attempt.
	for e := range errs {
		t.Errorf("storm request failed: %s", e)
	}
}

// TestFaultyFirstCandidate drives every walked route through each
// fault mode of the fake replica and asserts the package's retry rule:
// when the first candidate fails at the transport level the healthy
// second one answers, the faulty replica's error counter and the fleet
// retry counter both move, and a replica lying about free_bytes never
// blocks a placement without a real 409.
func TestFaultyFirstCandidate(t *testing.T) {
	routes := []struct {
		name, pattern, method string
		body                  any
		path                  func(model, graph string) string
	}{
		{"model-infer", routeInfer, "POST", map[string]any{"inputs": []any{}},
			func(m, _ string) string { return "/v2/models/" + m + "/infer" }},
		{"graph-infer", routeGraphInfer, "POST", map[string]any{},
			func(_, g string) string { return "/v2/graphs/" + g + "/infer" }},
		{"load", routeLoad, "POST", nil,
			func(m, _ string) string { return "/v2/repository/models/" + m + "/load" }},
		{"graph-put", routeGraphPut, "PUT", map[string]any{"models": []string{"gm"}},
			func(_, g string) string { return "/v2/graphs/" + g }},
	}
	// setup builds a 2-replica fleet where A is the first candidate of
	// both the model and the graph name and either replica could answer.
	setup := func(t *testing.T, placed bool) (rt *Router, a, b *fakeReplica, model, graph string) {
		costs := map[string]int{"gm": 10}
		a = newFakeReplica(t, "A", 1000, costs)
		b = newFakeReplica(t, "B", 1000, costs)
		rt = newTestRouterWith(t, func(c *Config) {
			c.Client = &http.Client{Timeout: 100 * time.Millisecond} // what a "slow" replica outlives
		}, a, b)
		model = keyOwnedBy(t, rt, a.url(), "fault-model")
		graph = keyOwnedBy(t, rt, a.url(), "fault-graph")
		costs[model] = 500
		for _, f := range []*fakeReplica{a, b} {
			f.loadDirect("gm")
			if placed { // the infer routes need the targets held already
				f.loadDirect(model)
				f.putGraphDirect(graph, "gm")
			}
		}
		rt.probeAll(1)
		return rt, a, b, model, graph
	}
	for _, route := range routes {
		for _, mode := range []string{"reset", "half-body", "slow"} {
			t.Run(route.name+"/"+mode, func(t *testing.T) {
				placed := route.pattern == routeInfer || route.pattern == routeGraphInfer
				rt, a, b, model, graph := setup(t, placed)
				a.setFault(route.pattern, mode)

				rec, _ := doReq(t, rt.Handler(), route.method, route.path(model, graph), route.body)
				if rec.Code != http.StatusOK {
					t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
				}
				if got := rec.Header().Get("X-Micronets-Replica"); got != b.url() {
					t.Errorf("answered by %s, want the healthy %s", got, b.url())
				}
				if a.hitCount(route.pattern) == 0 {
					t.Error("the faulty first candidate was never tried")
				}
				if got := rt.byURL[a.url()].errors.Load(); got == 0 {
					t.Error("faulty replica's error counter did not move")
				}
				if got := rt.retries.Load(); got == 0 {
					t.Error("retry counter did not move")
				}
			})
		}
	}

	// lying-free-bytes, load only (the one route that reads free_bytes).
	t.Run("load/index-advertises-room-load-409s", func(t *testing.T) {
		rt, a, b, model, _ := setup(t, false)
		a.budget, a.lieFree = 100, new(int) // really full for a 500-byte model...
		*a.lieFree = 1 << 20                // ...while the index claims a megabyte free
		rt.probeAll(1)

		rec, _ := doReq(t, rt.Handler(), "POST", "/v2/repository/models/"+model+"/load", nil)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Micronets-Replica") != b.url() {
			t.Fatalf("load = %d via %s, want 200 via %s", rec.Code, rec.Header().Get("X-Micronets-Replica"), b.url())
		}
		if got := rt.byURL[a.url()].spills.Load(); got != 1 {
			t.Errorf("A spills = %d, want 1 (its real 409)", got)
		}
		if got := rt.retries.Load(); got != 1 {
			t.Errorf("retries = %d, want 1 (the spill moved to B)", got)
		}
	})
	t.Run("load/index-advertises-zero-load-succeeds", func(t *testing.T) {
		rt, a, _, model, _ := setup(t, false)
		a.lieFree = new(int) // claims 0 free; really has 990
		rt.probeAll(1)

		rec, _ := doReq(t, rt.Handler(), "POST", "/v2/repository/models/"+model+"/load", nil)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Micronets-Replica") != a.url() {
			t.Fatalf("load = %d via %s, want 200 via the affinity owner %s: no 409 backed the advertised 0",
				rec.Code, rec.Header().Get("X-Micronets-Replica"), a.url())
		}
		if got := rt.byURL[a.url()].spills.Load(); got != 0 {
			t.Errorf("A spills = %d, want 0", got)
		}
	})
}

// TestBodyLimits pins both ends of the buffered proxy: a request body
// over the bound is a 413 while any other read failure is a 400, and a
// replica response over the bound is a failed attempt on that replica
// — never a truncated answer relayed as complete.
func TestBodyLimits(t *testing.T) {
	defer func(old int64) { maxBodyBytes = old }(maxBodyBytes)
	maxBodyBytes = 1 << 10

	costs := map[string]int{"m": 10, "solo": 10}
	a := newFakeReplica(t, "A", 0, costs)
	b := newFakeReplica(t, "B", 0, costs)
	rt := newTestRouter(t, a, b)
	model := keyOwnedBy(t, rt, a.url(), "big")
	costs[model] = 10
	a.loadDirect(model)
	b.loadDirect(model)
	rt.probeAll(1)
	a.setFault(routeInfer, "oversize")

	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"request over the bound", strings.NewReader(strings.Repeat("x", int(maxBodyBytes)+1)), http.StatusRequestEntityTooLarge},
		{"request read fails", iotest.ErrReader(io.ErrUnexpectedEOF), http.StatusBadRequest},
		{"oversize replica answer fails over", strings.NewReader(`{"inputs":[]}`), http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v2/models/"+model+"/infer", tc.body))
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d; body %s", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		if tc.want == http.StatusOK && rec.Header().Get("X-Micronets-Replica") != b.url() {
			t.Errorf("%s: answered by %s, want %s", tc.name, rec.Header().Get("X-Micronets-Replica"), b.url())
		}
	}
	if got := rt.byURL[a.url()].errors.Load(); got != 1 {
		t.Errorf("A errors = %d, want 1 (its oversize answer)", got)
	}

	// With no healthy alternate the caller gets a clean 502.
	rt.byURL[b.url()].setUp(false)
	rec, body := doReq(t, rt.Handler(), "POST", "/v2/models/"+model+"/infer", map[string]any{"inputs": []any{}})
	if rec.Code != http.StatusBadGateway || body["code"] != "replicas_unreachable" {
		t.Errorf("oversize answer, no alternate: %d %v, want 502 replicas_unreachable", rec.Code, body)
	}
}

// TestBackoffObservesContextAndListEnd: the walk never sleeps after its
// last candidate, and a caller that goes away during a backoff stops
// the walk before the next attempt.
func TestBackoffObservesContextAndListEnd(t *testing.T) {
	const backoff = 200 * time.Millisecond
	slowRetry := func(c *Config) { c.RetryBackoff = backoff }

	t.Run("no-sleep-after-last-candidate", func(t *testing.T) {
		costs := map[string]int{"m": 10}
		a := newFakeReplica(t, "A", 0, costs)
		b := newFakeReplica(t, "B", 0, costs)
		rt := newTestRouterWith(t, slowRetry, a, b)
		a.srv.Close() // both refuse connections, both still marked up
		b.srv.Close()

		start := time.Now()
		rec, body := doReq(t, rt.Handler(), "POST", "/v2/repository/models/m/load", nil)
		if rec.Code != http.StatusBadGateway || body["code"] != "replicas_unreachable" {
			t.Fatalf("load = %d %v, want 502 replicas_unreachable", rec.Code, body)
		}
		// One backoff between the two candidates, none after the second.
		if took := time.Since(start); took < backoff || took >= 2*backoff {
			t.Errorf("load took %v, want one %v backoff and no more", took, backoff)
		}
	})

	t.Run("cancel-during-backoff-stops-the-walk", func(t *testing.T) {
		costs := map[string]int{}
		a := newFakeReplica(t, "A", 0, costs)
		b := newFakeReplica(t, "B", 0, costs)
		rt := newTestRouterWith(t, slowRetry, a, b)
		model := keyOwnedBy(t, rt, a.url(), "gone")
		costs[model] = 10
		a.srv.Close() // first candidate fails fast; the walk then backs off

		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(backoff/4, cancel)
		req := httptest.NewRequest("POST", "/v2/repository/models/"+model+"/load", nil).WithContext(ctx)
		start := time.Now()
		rt.Handler().ServeHTTP(httptest.NewRecorder(), req)
		if took := time.Since(start); took >= backoff {
			t.Errorf("handler returned after %v, want it to stop at the cancel (~%v)", took, backoff/4)
		}
		if got := b.hitCount(routeLoad); got != 0 {
			t.Errorf("B saw %d load attempts after the caller went away, want 0", got)
		}
	})
}

// bodyTransport answers every GET with 200 and the bytes registered
// for its path, so FuzzReplicaView needs no sockets.
type bodyTransport map[string][]byte

func (bt bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(bt[req.URL.Path])),
		Request:    req,
	}, nil
}

// FuzzReplicaView feeds arbitrary bytes to refreshView as the index
// and graph-list bodies: it never panics, and it either keeps the
// previous view or installs one whose every models key came from a row
// with state == "READY".
func FuzzReplicaView(f *testing.F) {
	f.Add([]byte(`{"models":[{"name":"m","state":"READY","version":1}],"ram_budget_bytes":100,"free_bytes":40}`),
		[]byte(`{"graphs":[{"name":"g","models":["m"]}]}`))
	f.Add([]byte(`{"models":[{"name":"m","state":"LOADING"},{"name":7,"state":"READY"},{"state":"READY"}]}`), []byte(`{}`))
	f.Add([]byte(`{"models":[{"name":"m","state":"READY"}],"free_bytes":"lots"}`), []byte(`{"graphs":[]}`))
	f.Add([]byte(`{"models":{"name":"m"}}`), []byte(`{"graphs":[{"name":null}]}`))
	f.Add([]byte(`{"models":[{"name":"m","state":"READY"}]`), []byte(`[`))
	f.Add([]byte(``), []byte(`null`))
	f.Fuzz(func(t *testing.T, index, graphs []byte) {
		client := &http.Client{Transport: bodyTransport{
			"/v2/repository/index": index,
			"/v2/graphs":           graphs,
		}}
		rep := newReplica("http://replica")
		prev := rep.view.Load()
		rep.refreshView(client)
		v := rep.view.Load()
		if v == prev {
			return
		}
		if v.rows == nil || v.graphRows == nil {
			t.Fatal("an installed view must have non-nil rows (nil means never refreshed)")
		}
		ready := map[string]bool{}
		for _, row := range v.rows {
			if name, _ := row["name"].(string); row["state"] == "READY" {
				ready[name] = true
			}
		}
		for name := range v.models {
			if name == "" || !ready[name] {
				t.Errorf("view holds model %q that no READY index row names", name)
			}
		}
	})
}
