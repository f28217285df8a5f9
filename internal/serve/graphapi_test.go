package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"micronets/internal/servegraph"
	"micronets/internal/zoo"
)

// kwsRow builds one random KWS input row (49x10x1).
func kwsRow(rng *rand.Rand) []float64 {
	data := make([]float64, 490)
	for i := range data {
		data[i] = rng.Float64()*2 - 1
	}
	return data
}

// putGraph registers a graph spec over HTTP and returns the status code
// and decoded body.
func putGraph(t *testing.T, url, name string, spec any) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url+"/v2/graphs/"+name, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Non-JSON bodies (e.g. the mux's own 405 text) decode to nil.
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func deleteGraph(t *testing.T, url, name string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v2/graphs/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// graphInfer POSTs one row (or a pre-marshalled batch) through a graph.
func graphInfer(t *testing.T, url, name string, data []float64, route string) (int, map[string]any) {
	t.Helper()
	req := map[string]any{
		"inputs": []map[string]any{{"name": "input", "datatype": "FP32", "data": data}},
	}
	if route != "" {
		req["parameters"] = map[string]string{"route": route}
	}
	body, _ := json.Marshal(req)
	return postJSON(t, url+"/v2/graphs/"+name+"/infer", string(body))
}

func cascadeSpec(name string, threshold float64, models ...string) *servegraph.Spec {
	root := &servegraph.NodeSpec{Kind: servegraph.KindCascade, Name: "cascade", Threshold: threshold}
	for _, m := range models {
		root.Children = append(root.Children, &servegraph.NodeSpec{Kind: servegraph.KindModel, Model: m})
	}
	return &servegraph.Spec{Name: name, Root: root}
}

func TestGraphRegisterInferDelete(t *testing.T) {
	_, ts := newTestServer(t)

	// Threshold 0: the gate always clears it, so DSCNN-S answers every row.
	code, out := putGraph(t, ts.URL, "kws-cascade", cascadeSpec("kws-cascade", 0, "DSCNN-S", "MicroNet-KWS-S"))
	if code != 200 {
		t.Fatalf("PUT graph: %d %v", code, out)
	}
	if fmt.Sprint(out["models"]) != "[DSCNN-S MicroNet-KWS-S]" {
		t.Fatalf("registered models = %v", out["models"])
	}
	if fmt.Sprint(out["input_shape"]) != "[49 10 1]" {
		t.Fatalf("input_shape = %v", out["input_shape"])
	}

	rng := rand.New(rand.NewSource(3))
	code, resp := graphInfer(t, ts.URL, "kws-cascade", kwsRow(rng), "")
	if code != 200 {
		t.Fatalf("graph infer: %d %v", code, resp)
	}
	served := resp["served_by"].([]any)
	if len(served) != 1 || served[0] != "DSCNN-S" {
		t.Fatalf("served_by = %v, want [DSCNN-S] (threshold 0 gate)", served)
	}
	if esc := resp["escalations"].([]any); esc[0].(float64) != 0 {
		t.Fatalf("escalations = %v, want 0", esc)
	}

	// GET returns the spec and live stats.
	got := getJSON(t, ts.URL+"/v2/graphs/kws-cascade", 200)
	stats := got["stats"].(map[string]any)
	if stats["requests"].(float64) != 1 {
		t.Fatalf("stats.requests = %v, want 1", stats["requests"])
	}
	list := getJSON(t, ts.URL+"/v2/graphs", 200)
	if graphs := list["graphs"].([]any); len(graphs) != 1 {
		t.Fatalf("graph list = %v, want 1 entry", graphs)
	}

	if code := deleteGraph(t, ts.URL, "kws-cascade"); code != 200 {
		t.Fatalf("DELETE graph: %d", code)
	}
	getJSON(t, ts.URL+"/v2/graphs/kws-cascade", 404)
	if code := deleteGraph(t, ts.URL, "kws-cascade"); code != 404 {
		t.Fatalf("second DELETE: %d, want 404", code)
	}
}

func TestGraphCascadeEscalatesAtImpossibleThreshold(t *testing.T) {
	_, ts := newTestServer(t)
	// Threshold 1.0 can never be reached by a quantized softmax (max
	// dequantized probability is 255/256), so every request escalates to
	// the final stage.
	code, out := putGraph(t, ts.URL, "cas-hi", cascadeSpec("cas-hi", 1.0, "DSCNN-S", "MicroNet-KWS-S"))
	if code != 200 {
		t.Fatalf("PUT graph: %d %v", code, out)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3; i++ {
		code, resp := graphInfer(t, ts.URL, "cas-hi", kwsRow(rng), "")
		if code != 200 {
			t.Fatalf("graph infer: %d %v", code, resp)
		}
		if served := resp["served_by"].([]any); served[0] != "MicroNet-KWS-S" {
			t.Fatalf("served_by = %v, want the final stage", served)
		}
		if esc := resp["escalations"].([]any); esc[0].(float64) != 1 {
			t.Fatalf("escalations = %v, want 1", esc)
		}
	}
	got := getJSON(t, ts.URL+"/v2/graphs/cas-hi", 200)
	for _, n := range got["stats"].(map[string]any)["nodes"].([]any) {
		node := n.(map[string]any)
		if node["kind"] == "cascade" {
			if node["escalations"].(float64) != 3 || node["gate_hits"] != nil {
				t.Fatalf("cascade node counters = %v, want 3 escalations, 0 gate hits", node)
			}
		}
	}
}

func TestGraphValidationOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)

	// Dangling model reference → structured 404 with the model named.
	code, out := putGraph(t, ts.URL, "bad", cascadeSpec("bad", 0.5, "DSCNN-S", "NoSuchModel"))
	if code != 404 {
		t.Fatalf("dangling ref: %d %v, want 404", code, out)
	}
	if out["code"] != "unknown_model" || out["model"] != "NoSuchModel" {
		t.Fatalf("dangling ref body = %v", out)
	}

	// Invalid structure → 400.
	code, out = putGraph(t, ts.URL, "bad", map[string]any{
		"name": "bad", "root": map[string]any{"kind": "cascade"},
	})
	if code != 400 || out["code"] != "invalid_graph" {
		t.Fatalf("childless cascade: %d %v, want 400 invalid_graph", code, out)
	}

	// Name mismatch between URL and spec body → 400.
	code, out = putGraph(t, ts.URL, "bad", cascadeSpec("other-name", 0.5, "DSCNN-S", "MicroNet-KWS-S"))
	if code != 400 {
		t.Fatalf("name mismatch: %d %v, want 400", code, out)
	}

	// Version pin that doesn't match the serving version → 400.
	code, out = putGraph(t, ts.URL, "bad", &servegraph.Spec{Name: "bad", Root: &servegraph.NodeSpec{
		Kind: servegraph.KindModel, Model: "DSCNN-S", Version: 99,
	}})
	if code != 400 || out["code"] != "version_mismatch" {
		t.Fatalf("version pin: %d %v, want 400 version_mismatch", code, out)
	}

	// A body is one JSON value: anything but whitespace after it → 400,
	// and nothing is registered.
	valid, _ := json.Marshal(cascadeSpec("tail", 0.5, "DSCNN-S", "MicroNet-KWS-S"))
	put := func(body string) int {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v2/graphs/tail", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tail := range []string{` {"garbage":`, `]]]`, ` {}`} {
		if code := put(string(valid) + tail); code != 400 {
			t.Fatalf("PUT with trailing %q: %d, want 400", tail, code)
		}
	}
	getJSON(t, ts.URL+"/v2/graphs/tail", 404)
	if code := put(string(valid) + "\n \t"); code != 200 {
		t.Fatalf("PUT with trailing whitespace: %d, want 200", code)
	}

	// Infer through an unregistered graph → 404.
	code, out = graphInfer(t, ts.URL, "never-registered", make([]float64, 490), "")
	if code != 404 || out["code"] != "unknown_graph" {
		t.Fatalf("unknown graph infer: %d %v", code, out)
	}

	// Wrong input size → 400.
	if code, out := putGraph(t, ts.URL, "ok", cascadeSpec("ok", 0.5, "DSCNN-S", "MicroNet-KWS-S")); code != 200 {
		t.Fatalf("PUT ok graph: %d %v", code, out)
	}
	code, _ = graphInfer(t, ts.URL, "ok", make([]float64, 10), "")
	if code != 400 {
		t.Fatalf("short input: %d, want 400", code)
	}
}

func TestGraphGuardsUnloadOfReferencedModel(t *testing.T) {
	_, ts := newTestServer(t)
	if code, out := putGraph(t, ts.URL, "guard", cascadeSpec("guard", 0.7, "DSCNN-S", "MicroNet-KWS-S")); code != 200 {
		t.Fatalf("PUT graph: %d %v", code, out)
	}

	code, out := postJSON(t, ts.URL+"/v2/repository/models/DSCNN-S/unload", "")
	if code != 409 {
		t.Fatalf("unload referenced model: %d %v, want 409", code, out)
	}
	if out["code"] != "model_referenced" || fmt.Sprint(out["graphs"]) != "[guard]" {
		t.Fatalf("409 body = %v", out)
	}

	// The model still serves.
	rng := rand.New(rand.NewSource(5))
	inferOnce(t, ts.URL, "DSCNN-S", kwsRow(rng))

	// Delete the graph, then the unload goes through.
	if code := deleteGraph(t, ts.URL, "guard"); code != 200 {
		t.Fatalf("DELETE graph: %d", code)
	}
	code, out = postJSON(t, ts.URL+"/v2/repository/models/DSCNN-S/unload", "")
	if code != 200 {
		t.Fatalf("unload after delete: %d %v, want 200", code, out)
	}
}

func TestGraphSplitterAndSwitchOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	spec := &servegraph.Spec{Name: "canary", Seed: 11, Root: &servegraph.NodeSpec{
		Kind: servegraph.KindSplitter,
		Children: []*servegraph.NodeSpec{
			{Kind: servegraph.KindModel, Model: "MicroNet-KWS-S", Name: "stable", Weight: 3},
			{Kind: servegraph.KindModel, Model: "DSCNN-S", Name: "canary", Weight: 1},
		},
	}}
	if code, out := putGraph(t, ts.URL, "canary", spec); code != 200 {
		t.Fatalf("PUT splitter: %d %v", code, out)
	}
	rng := rand.New(rand.NewSource(6))
	row := kwsRow(rng)
	for i := 0; i < 16; i++ {
		if code, resp := graphInfer(t, ts.URL, "canary", row, ""); code != 200 {
			t.Fatalf("splitter infer: %d %v", code, resp)
		}
	}
	got := getJSON(t, ts.URL+"/v2/graphs/canary", 200)
	var picks float64
	for _, n := range got["stats"].(map[string]any)["nodes"].([]any) {
		node := n.(map[string]any)
		if p, ok := node["picks"].(float64); ok {
			picks += p
		}
	}
	if picks != 16 {
		t.Fatalf("splitter picks sum %v, want 16", picks)
	}

	sw := &servegraph.Spec{Name: "ab", Root: &servegraph.NodeSpec{
		Kind: servegraph.KindSwitch,
		Children: []*servegraph.NodeSpec{
			{Kind: servegraph.KindModel, Model: "DSCNN-S", When: "fast"},
			{Kind: servegraph.KindModel, Model: "MicroNet-KWS-S"},
		},
	}}
	if code, out := putGraph(t, ts.URL, "ab", sw); code != 200 {
		t.Fatalf("PUT switch: %d %v", code, out)
	}
	code, resp := graphInfer(t, ts.URL, "ab", row, "fast")
	if code != 200 || resp["served_by"].([]any)[0] != "DSCNN-S" {
		t.Fatalf("route=fast: %d %v", code, resp)
	}
	code, resp = graphInfer(t, ts.URL, "ab", row, "")
	if code != 200 || resp["served_by"].([]any)[0] != "MicroNet-KWS-S" {
		t.Fatalf("default route: %d %v", code, resp)
	}
}

func TestGraphMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t)
	if code, out := putGraph(t, ts.URL, "m", cascadeSpec("m", 0, "DSCNN-S", "MicroNet-KWS-S")); code != 200 {
		t.Fatalf("PUT graph: %d %v", code, out)
	}
	rng := rand.New(rand.NewSource(8))
	if code, resp := graphInfer(t, ts.URL, "m", kwsRow(rng), ""); code != 200 {
		t.Fatalf("infer: %d %v", code, resp)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"micronets_graphs_registered 1",
		`micronets_graph_requests_total{graph="m"} 1`,
		`micronets_graph_gate_hits_total{graph="m",node="cascade"} 1`,
		`micronets_graph_escalations_total{graph="m",node="cascade"} 0`,
		`micronets_graph_node_requests_total{graph="m",node="root.0"} 1`,
		`micronets_graph_request_latency_seconds_count{graph="m"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestGraphAdminDisabled(t *testing.T) {
	s, err := New(Config{
		Models:       []string{"DSCNN-S"},
		Options:      ModelOptions{Seed: 42, AppendSoftmax: true},
		DisableAdmin: true,
		Logger:       discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	code, _ := putGraph(t, ts.URL, "x", cascadeSpec("x", 0.5, "DSCNN-S"))
	if code != http.StatusMethodNotAllowed && code != http.StatusNotFound {
		t.Fatalf("PUT with admin disabled: %d, want 404/405", code)
	}
	// The read-only surface stays up.
	getJSON(t, ts.URL+"/v2/graphs", 200)
}

// TestGraphInferSurvivesConcurrentLifecycle is the -race storm: graph
// infers run while the referenced model is swapped (blue/green) and an
// unrelated model is unloaded. Every infer must either succeed or fail
// with a structured error — no panics, no races, no torn state.
func TestGraphInferSurvivesConcurrentLifecycle(t *testing.T) {
	s, ts := newTestServer(t)
	if code, out := putGraph(t, ts.URL, "storm", cascadeSpec("storm", 0.7, "DSCNN-S", "MicroNet-KWS-S")); code != 200 {
		t.Fatalf("PUT graph: %d %v", code, out)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Infer workers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, resp := graphInfer(t, ts.URL, "storm", kwsRow(rng), "")
				if code != 200 && code != 409 && code != 503 {
					t.Errorf("storm infer: unexpected status %d: %v", code, resp)
					return
				}
			}
		}(int64(w + 100))
	}

	// Swapper: blue/green re-loads of the gate model with a different
	// seed so each load is a genuinely new version.
	wg.Add(1)
	go func() {
		defer wg.Done()
		e, err := zoo.Get("DSCNN-S")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			opts := ModelOptions{Seed: int64(1000 + i), AppendSoftmax: true}
			if _, err := s.Repository().Load(e.Spec, opts); err != nil {
				t.Errorf("storm swap: %v", err)
				return
			}
		}
	}()

	// Re-register the graph concurrently too: revision bumps must never
	// fail in-flight requests routed through the old compiled tree.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if code, out := putGraph(t, ts.URL, "storm", cascadeSpec("storm", 0.7, "DSCNN-S", "MicroNet-KWS-S")); code != 200 {
				t.Errorf("storm re-register: %d %v", code, out)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The unload guard still holds after the storm.
	if code, out := postJSON(t, ts.URL+"/v2/repository/models/MicroNet-KWS-S/unload", ""); code != 409 {
		t.Fatalf("post-storm unload: %d %v, want 409", code, out)
	}
}
