package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"micronets/internal/arch"
	"micronets/internal/servegraph"
	"micronets/internal/tensor"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// testModels are small KWS models so the suite stays fast.
var testModels = []string{"MicroNet-KWS-S", "DSCNN-S"}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Models:  testModels,
		Options: ModelOptions{Seed: 42, AppendSoftmax: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return out
}

func TestHealthAndModelListing(t *testing.T) {
	_, ts := newTestServer(t)
	if out := getJSON(t, ts.URL+"/v2/health/live", 200); out["live"] != true {
		t.Fatalf("live = %v", out)
	}
	if out := getJSON(t, ts.URL+"/v2/health/ready", 200); out["ready"] != true {
		t.Fatalf("ready = %v", out)
	}
	out := getJSON(t, ts.URL+"/v2/models", 200)
	models, _ := out["models"].([]any)
	if len(models) != len(testModels) {
		t.Fatalf("models = %v, want %d entries", out, len(testModels))
	}

	meta := getJSON(t, ts.URL+"/v2/models/MicroNet-KWS-S", 200)
	if meta["name"] != "MicroNet-KWS-S" || meta["platform"] != "micronets-go-tflm" {
		t.Fatalf("metadata = %v", meta)
	}
	inputs := meta["inputs"].([]any)
	shape := inputs[0].(map[string]any)["shape"].([]any)
	if fmt.Sprint(shape) != "[49 10 1]" {
		t.Fatalf("KWS input shape = %v", shape)
	}
	getJSON(t, ts.URL+"/v2/models/NoSuchModel", 404)
}

// inferOnce POSTs one FP32 row and returns the decoded response.
func inferOnce(t *testing.T, url, model string, data []float64) v2InferResponse {
	t.Helper()
	// Shape is optional in the protocol; shape handling has its own test.
	body, _ := json.Marshal(v2InferRequest{ID: "t1", Inputs: []v2Tensor{{
		Name: "input", Datatype: "FP32", Data: data,
	}}})
	resp, err := http.Post(url+"/v2/models/"+model+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		var e v2Error
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("infer %s: status %d: %s", model, resp.StatusCode, e.Error)
	}
	var out v2InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func output(resp v2InferResponse, name string) *v2Tensor {
	for i := range resp.Outputs {
		if resp.Outputs[i].Name == name {
			return &resp.Outputs[i]
		}
	}
	return nil
}

// TestInferMatchesDirectInterpreter answers the acceptance criterion: a
// real /infer POST returns the argmax class + score for two zoo models,
// and they are bit-identical to a directly constructed interpreter at the
// same seed.
func TestInferMatchesDirectInterpreter(t *testing.T) {
	s, ts := newTestServer(t)
	for _, name := range testModels {
		rng := rand.New(rand.NewSource(7))
		e, err := zoo.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		elems := e.Spec.InputH * e.Spec.InputW * e.Spec.InputC
		data := make([]float64, elems)
		x := tensor.New(elems)
		for i := range data {
			v := rng.Float64()*2 - 1
			data[i] = v
			x.Data[i] = float32(v)
		}

		resp := inferOnce(t, ts.URL, name, data)
		class := output(resp, "class")
		score := output(resp, "score")
		scores := output(resp, "scores")
		if class == nil || score == nil || scores == nil {
			t.Fatalf("%s: response missing outputs: %+v", name, resp)
		}
		if len(scores.Data) != e.Spec.NumClasses {
			t.Fatalf("%s: got %d scores, want %d", name, len(scores.Data), e.Spec.NumClasses)
		}

		// Same lowering as the repository performs (seed 42, softmax).
		mod := lowerZoo(t, name, ModelOptions{Seed: 42, AppendSoftmax: true})
		ip, err := tflm.NewInterpreter(mod, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantClass, wantScore, err := ip.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		if int(class.Data[0]) != wantClass {
			t.Fatalf("%s: served class %v, direct %d", name, class.Data[0], wantClass)
		}
		if got := float32(score.Data[0]); got != wantScore {
			t.Fatalf("%s: served score %v, direct %v", name, got, wantScore)
		}

		// Differential: the same FP32 row through the repository data
		// path and through a single-node graph yields the identical
		// score vector the model endpoint returned.
		inT, outT := mod.Tensors[mod.Input], mod.Tensors[mod.Output]
		row, err := quantizeRow(inT, "FP32", data)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.repo.Infer(context.Background(), name, row)
		if err != nil {
			t.Fatal(err)
		}
		if got := dequantize(outT, out); !slices.Equal(got, scores.Data) {
			t.Fatalf("%s: Repository.Infer scores %v, /v2/models scores %v", name, got, scores.Data)
		}
		gname := "solo-" + name
		if _, err := s.graphs.Put(&servegraph.Spec{Name: gname, Root: &servegraph.NodeSpec{Kind: servegraph.KindModel, Model: name}}); err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(v2InferRequest{Inputs: []v2Tensor{{Name: "input", Datatype: "FP32", Data: data}}})
		code, viaGraph := postJSON(t, ts.URL+"/v2/graphs/"+gname+"/infer", string(body))
		if code != 200 {
			t.Fatalf("%s: graph infer: code %d (%v)", name, code, viaGraph)
		}
		graphScores := viaGraph["outputs"].([]any)[0].(map[string]any)["data"].([]any)
		if len(graphScores) != len(scores.Data) {
			t.Fatalf("%s: graph returned %d scores, model %d", name, len(graphScores), len(scores.Data))
		}
		for i, g := range graphScores {
			if g.(float64) != scores.Data[i] {
				t.Fatalf("%s: /v2/graphs score[%d] = %v, /v2/models = %v", name, i, g, scores.Data[i])
			}
		}
	}
}

// TestInferClientBatch sends one request with a leading batch dimension
// and checks per-row outputs line up with single-row requests.
func TestInferClientBatch(t *testing.T) {
	_, ts := newTestServer(t)
	e, _ := zoo.Get("MicroNet-KWS-S")
	elems := e.Spec.InputH * e.Spec.InputW * e.Spec.InputC
	rng := rand.New(rand.NewSource(11))
	const n = 3
	data := make([]float64, n*elems)
	for i := range data {
		data[i] = rng.Float64()*2 - 1
	}
	resp := inferOnce(t, ts.URL, "MicroNet-KWS-S", data)
	class := output(resp, "class")
	if len(class.Data) != n {
		t.Fatalf("client batch: got %d classes, want %d", len(class.Data), n)
	}
	for b := 0; b < n; b++ {
		single := inferOnce(t, ts.URL, "MicroNet-KWS-S", data[b*elems:(b+1)*elems])
		if output(single, "class").Data[0] != class.Data[b] {
			t.Fatalf("row %d: batched class %v != single class %v", b, class.Data[b], output(single, "class").Data[0])
		}
	}
}

func TestInferBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v2/models/MicroNet-KWS-S/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != 400 {
		t.Fatalf("bad JSON: status %d", code)
	}
	if code := post(`{"inputs":[]}`); code != 400 {
		t.Fatalf("no inputs: status %d", code)
	}
	if code := post(`{"inputs":[{"name":"input","datatype":"FP32","shape":[3],"data":[1,2,3]}]}`); code != 400 {
		t.Fatalf("wrong length: status %d", code)
	}
	if code := post(`{"inputs":[{"name":"input","datatype":"FP64","shape":[490],"data":[` + strings.Repeat("0,", 489) + `0]}]}`); code != 400 {
		t.Fatalf("bad datatype: status %d", code)
	}
	// INT8 out-of-range value.
	if code := post(`{"inputs":[{"name":"input","datatype":"INT8","shape":[490],"data":[999` + strings.Repeat(",0", 489) + `]}]}`); code != 400 {
		t.Fatalf("INT8 range: status %d", code)
	}
	// Bytes after the top-level object: the body is one JSON value.
	valid := `{"inputs":[{"name":"input","data":[` + strings.Repeat("0,", 489) + `0]}]}`
	if code := post(valid + "\n"); code != 200 {
		t.Fatalf("valid body with trailing whitespace: status %d", code)
	}
	for _, tail := range []string{` {"garbage":`, `]]]`, ` {}`, `x`} {
		if code := post(valid + tail); code != 400 {
			t.Fatalf("trailing %q: status %d, want 400", tail, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v2/models/NoSuchModel/infer", "application/json", strings.NewReader(`{"inputs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown model: status %d", resp.StatusCode)
	}
}

// TestInferShapeValidation: the declared shape must agree with the
// model's input layout — a transposed or wrong-count shape is a 400, the
// documented layouts (flat, [h,w,c], batched variants, absent) are 200.
func TestInferShapeValidation(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(shape []int, n int) int {
		t.Helper()
		data := make([]float64, n*490)
		body, _ := json.Marshal(v2InferRequest{Inputs: []v2Tensor{{
			Name: "input", Datatype: "FP32", Shape: shape, Data: data,
		}}})
		resp, err := http.Post(ts.URL+"/v2/models/MicroNet-KWS-S/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, ok := range [][]int{nil, {490}, {49, 10, 1}, {2, 490}, {2, 49, 10, 1}} {
		n := 1
		if len(ok) > 0 && (len(ok) == 2 || len(ok) == 4) {
			n = ok[0]
		}
		if code := post(ok, n); code != 200 {
			t.Fatalf("shape %v: status %d, want 200", ok, code)
		}
	}
	for _, bad := range [][]int{{10, 49, 1}, {490, 1, 1}, {980}, {49, 10}} {
		if code := post(bad, 1); code != 400 {
			t.Fatalf("shape %v: status %d, want 400", bad, code)
		}
	}
	// Shape/data element-count mismatch.
	if code := post([]int{49, 10, 1}, 2); code != 400 {
		t.Fatalf("shape [49 10 1] with 2 rows of data: status %d, want 400", code)
	}
}

// TestInferBodyLimit: a client batch beyond maxInferRows is rejected, and
// a body larger than the derived limit gets 413 instead of exhausting
// memory — on the infer and the admin load endpoints alike.
func TestInferBodyLimit(t *testing.T) {
	s, ts := newTestServer(t)
	data := make([]float64, (maxInferRows+1)*490)
	body, _ := json.Marshal(v2InferRequest{Inputs: []v2Tensor{{Name: "input", Datatype: "FP32", Data: data}}})
	resp, err := http.Post(ts.URL+"/v2/models/MicroNet-KWS-S/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 && resp.StatusCode != 413 {
		t.Fatalf("oversized batch: status %d, want 400 or 413", resp.StatusCode)
	}

	// The admin load body is capped at 1MB, and only the cap is a 413: a
	// body that fails to read for any other reason is the client's 400.
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"over 1MB", strings.NewReader(`{"spec_file":"` + strings.Repeat("x", 1<<20) + `"}`), http.StatusRequestEntityTooLarge},
		{"read error", iotest.ErrReader(errors.New("connection reset")), http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v2/repository/models/DSCNN-S/load", tc.body))
		if rec.Code != tc.want {
			t.Errorf("load with %s body: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}

	// A body past the MaxBytesReader limit either gets a 413 or the
	// server cuts the connection mid-upload (also acceptable); what it
	// must never do is 200.
	huge := strings.NewReader(`{"inputs":[{"name":"input","data":[` + strings.Repeat("0.123456789,", 500_000) + `0]}]}`)
	resp2, err := http.Post(ts.URL+"/v2/models/MicroNet-KWS-S/infer", "application/json", huge)
	if err != nil {
		return // connection cut by the server: limit enforced
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp2.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	e, _ := zoo.Get("MicroNet-KWS-S")
	elems := e.Spec.InputH * e.Spec.InputW * e.Spec.InputC
	inferOnce(t, ts.URL, "MicroNet-KWS-S", make([]float64, elems))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"micronets_serve_models_loaded 2",
		"micronets_serve_lowerings_total 2",
		"micronets_serve_ram_budget_bytes 0",
		"micronets_serve_ram_planned_bytes ",
		`micronets_serve_requests_total{model="MicroNet-KWS-S"} 1`,
		`micronets_serve_queue_wait_seconds_count{model="MicroNet-KWS-S"} 1`,
		`micronets_serve_decode_seconds_count{model="MicroNet-KWS-S"} 1`,
		`micronets_serve_encode_seconds_count{model="MicroNet-KWS-S"} 1`,
		`micronets_serve_arena_bytes{model="MicroNet-KWS-S"}`,
		`micronets_serve_model_version{model="MicroNet-KWS-S"} 1`,
		`micronets_serve_model_versions{model="MicroNet-KWS-S"} 1`,
		`micronets_serve_pool_size{model="MicroNet-KWS-S"} 2`,
		`micronets_serve_planned_arena_bytes{model="MicroNet-KWS-S"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// postJSON POSTs a body (possibly empty) and decodes the JSON response.
func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return resp.StatusCode, out
}

// repoIndex fetches /v2/repository/index rows keyed by model name (the
// newest version wins, matching the sort order).
func repoIndex(t *testing.T, url string) map[string]map[string]any {
	t.Helper()
	out := getJSON(t, url+"/v2/repository/index", 200)
	rows, _ := out["models"].([]any)
	byName := map[string]map[string]any{}
	for _, r := range rows {
		row := r.(map[string]any)
		name := row["name"].(string)
		if _, dup := byName[name]; !dup {
			byName[name] = row
		}
	}
	return byName
}

// TestAdminLoadUnloadIndex drives the control plane over HTTP: a model
// not in the boot set is hot-loaded by name, appears READY in the index
// with its planned capacity columns, serves an infer, and 404s again
// after unload — all without any restart.
func TestAdminLoadUnloadIndex(t *testing.T) {
	s, ts := newTestServer(t)

	// Boot state: both test models READY with capacity columns.
	idx := repoIndex(t, ts.URL)
	if len(idx) != 2 {
		t.Fatalf("boot index has %d models, want 2: %v", len(idx), idx)
	}
	for name, row := range idx {
		if row["state"] != "READY" || row["planned_ram_bytes"].(float64) <= 0 || row["flash_bytes"].(float64) <= 0 {
			t.Fatalf("boot index row %s = %v", name, row)
		}
	}

	// MBNETV2-S is not in the boot set: infer 404s, then an empty-body
	// admin load makes it servable.
	e, _ := zoo.Get("MBNETV2-S")
	elems := e.Spec.InputH * e.Spec.InputW * e.Spec.InputC
	data := make([]float64, elems)
	body, _ := json.Marshal(v2InferRequest{Inputs: []v2Tensor{{Name: "input", Datatype: "FP32", Data: data}}})
	resp, err := http.Post(ts.URL+"/v2/models/MBNETV2-S/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("infer before load: status %d, want 404", resp.StatusCode)
	}

	code, st := postJSON(t, ts.URL+"/v2/repository/models/MBNETV2-S/load", "")
	if code != 200 || st["state"] != "READY" || st["version"].(float64) != 1 {
		t.Fatalf("admin load: code %d, status %v", code, st)
	}
	if row := repoIndex(t, ts.URL)["MBNETV2-S"]; row == nil || row["state"] != "READY" {
		t.Fatalf("loaded model missing from index: %v", row)
	}
	inferOnce(t, ts.URL, "MBNETV2-S", data)

	// Loading again is idempotent — still version 1, no second lowering.
	low := s.repo.Lowerings()
	code, st = postJSON(t, ts.URL+"/v2/repository/models/MBNETV2-S/load", "")
	if code != 200 || st["version"].(float64) != 1 || s.repo.Lowerings() != low {
		t.Fatalf("re-load: code %d status %v lowerings %d->%d", code, st, low, s.repo.Lowerings())
	}

	// Unload drains it out of the index and the data path.
	code, _ = postJSON(t, ts.URL+"/v2/repository/models/MBNETV2-S/unload", "")
	if code != 200 {
		t.Fatalf("unload: code %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for repoIndex(t, ts.URL)["MBNETV2-S"] != nil {
		if time.Now().After(deadline) {
			t.Fatal("unloaded model never left the index")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp2, err := http.Post(ts.URL+"/v2/models/MBNETV2-S/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Fatalf("infer after unload: status %d, want 404", resp2.StatusCode)
	}

	// Unknown names 404 on both verbs.
	if code, _ := postJSON(t, ts.URL+"/v2/repository/models/NoSuchModel/load", ""); code != 404 {
		t.Fatalf("load unknown: code %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v2/repository/models/NoSuchModel/unload", ""); code != 404 {
		t.Fatalf("unload unknown: code %d", code)
	}
}

// TestAdminLoadInlineSpec publishes a complete architecture in the load
// body — the cmd/search -publish path — and proves it serves; a name
// mismatch between URL and spec is a 400.
func TestAdminLoadInlineSpec(t *testing.T) {
	_, ts := newTestServer(t)
	e, _ := zoo.Get("DSCNN-S")
	spec := *e.Spec
	spec.Name = "Inline-Test-DSCNN"
	t.Cleanup(func() { zoo.Unregister(spec.Name) })

	body, _ := json.Marshal(map[string]any{"spec": &spec, "options": map[string]any{"seed": 7}})
	code, st := postJSON(t, ts.URL+"/v2/repository/models/Inline-Test-DSCNN/load", string(body))
	if code != 200 || st["state"] != "READY" {
		t.Fatalf("inline load: code %d status %v", code, st)
	}
	elems := spec.InputH * spec.InputW * spec.InputC
	resp := inferOnce(t, ts.URL, spec.Name, make([]float64, elems))
	if resp.ModelName != spec.Name {
		t.Fatalf("inline model served as %q", resp.ModelName)
	}

	code, _ = postJSON(t, ts.URL+"/v2/repository/models/WrongName/load", string(body))
	if code != 400 {
		t.Fatalf("name-mismatched inline load: code %d, want 400", code)
	}
}

// TestAdminInlineSpecRejectsNonPositiveSizes: an inline spec whose sizes
// the lowering cannot build, or that asks for an unbounded allocation,
// answers 400 and leaves the zoo and the index as they were, instead of
// panicking the handler mid-load. The oversized conv asks for 2^62 weights,
// a make the runtime refuses at once rather than tries.
func TestAdminInlineSpecRejectsNonPositiveSizes(t *testing.T) {
	_, ts := newTestServer(t)
	e, _ := zoo.Get("DSCNN-S")
	for name, outC := range map[string]int{"Inline-Negative-OutC": -4, "Inline-Oversized-OutC": 1 << 62} {
		spec := *e.Spec
		spec.Name = name
		spec.Blocks = append([]arch.Block{{Kind: arch.Conv, KH: 1, KW: 1, OutC: outC, Stride: 1}}, spec.Blocks[1:]...)
		t.Cleanup(func() { zoo.Unregister(spec.Name) })
		before := len(zoo.Names())

		body, _ := json.Marshal(map[string]any{"spec": &spec})
		code, resp := postJSON(t, ts.URL+"/v2/repository/models/"+spec.Name+"/load", string(body))
		if code != http.StatusBadRequest {
			t.Fatalf("inline spec with OutC %d: code %d (%v), want 400", outC, code, resp)
		}
		if _, err := zoo.Get(spec.Name); err == nil || len(zoo.Names()) != before {
			t.Fatalf("rejected inline spec %s stayed registered in the zoo", spec.Name)
		}
		if idx := repoIndex(t, ts.URL); idx[spec.Name] != nil {
			t.Fatalf("rejected inline spec reached the index: %v", idx[spec.Name])
		}
	}
}

// TestAdminBudgetConflict: a hot-load that cannot fit the server's RAM
// budget is rejected with a structured 409, and the index is untouched.
func TestAdminBudgetConflict(t *testing.T) {
	// Budget sized to the boot model's weights + one arena:
	// nothing else fits.
	opts := ModelOptions{Seed: 42, AppendSoftmax: true}
	boot := testSpec(t, "DSCNN-S")
	budget := weightBytesOf(t, boot, opts) + arenaBytesOf(t, boot, opts)
	s, err := New(Config{
		Models:         []string{"DSCNN-S"},
		Options:        ModelOptions{Seed: 42, AppendSoftmax: true},
		PoolSize:       1,
		RAMBudgetBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	code, body := postJSON(t, ts.URL+"/v2/repository/models/MicroNet-KWS-S/load", "")
	if code != http.StatusConflict {
		t.Fatalf("over-budget load: code %d, want 409 (%v)", code, body)
	}
	if body["code"] != "ram_budget_exceeded" || body["model"] != "MicroNet-KWS-S" {
		t.Fatalf("409 body missing structured fields: %v", body)
	}
	if body["needed_bytes"].(float64) <= 0 || body["budget_bytes"].(float64) != float64(budget) {
		t.Fatalf("409 byte accounting wrong: %v", body)
	}
	// free_bytes is the precomputed budget − planned difference the fleet
	// placer bin-packs against; it must agree with the other two fields.
	if body["free_bytes"].(float64) != body["budget_bytes"].(float64)-body["planned_bytes"].(float64) {
		t.Fatalf("409 free_bytes != budget - planned: %v", body)
	}
	if idx := repoIndex(t, ts.URL); len(idx) != 1 || idx["MicroNet-KWS-S"] != nil {
		t.Fatalf("rejected load leaked into the index: %v", idx)
	}
}

// TestAdminLoadPartialOptions: an options object that only sets some
// fields must inherit the server's lowering for the rest. The detector:
// on a softmax-less server, a seed-only options body must hash to the
// SAME version key as the boot load (idempotent, still version 1) — an
// options object that resets unspecified fields would flip softmax back
// on and trigger a spurious blue/green swap to version 2.
func TestAdminLoadPartialOptions(t *testing.T) {
	s, err := New(Config{
		Models:  []string{"DSCNN-S"},
		Options: ModelOptions{Seed: 42, AppendSoftmax: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	code, st := postJSON(t, ts.URL+"/v2/repository/models/DSCNN-S/load", `{"options":{"seed":42}}`)
	if code != 200 {
		t.Fatalf("partial-options load: code %d (%v)", code, st)
	}
	if st["version"].(float64) != 1 {
		t.Fatalf("seed-only options did not inherit the server lowering: swapped to version %v", st["version"])
	}
	// And an explicit override still works: a different seed IS a swap.
	code, st = postJSON(t, ts.URL+"/v2/repository/models/DSCNN-S/load", `{"options":{"seed":7}}`)
	if code != 200 || st["version"].(float64) != 2 {
		t.Fatalf("explicit seed override: code %d status %v, want version 2", code, st)
	}
}

// TestAdminInlinePublishRollsBackOnBudgetReject: a 409'd inline publish
// must leave the zoo catalogue untouched — no name registered, so a
// later by-name load cannot resolve the rejected spec.
func TestAdminInlinePublishRollsBackOnBudgetReject(t *testing.T) {
	opts := ModelOptions{Seed: 42, AppendSoftmax: true}
	boot := testSpec(t, "DSCNN-S")
	s, err := New(Config{
		Models:         []string{"DSCNN-S"},
		Options:        opts,
		PoolSize:       1,
		RAMBudgetBytes: weightBytesOf(t, boot, opts) + arenaBytesOf(t, boot, opts),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	big, _ := zoo.Get("MicroNet-KWS-S")
	spec := *big.Spec
	spec.Name = "Inline-Rollback-Test"
	t.Cleanup(func() { zoo.Unregister(spec.Name) })
	body, _ := json.Marshal(map[string]any{"spec": &spec})
	code, resp := postJSON(t, ts.URL+"/v2/repository/models/Inline-Rollback-Test/load", string(body))
	if code != http.StatusConflict {
		t.Fatalf("over-budget inline publish: code %d (%v)", code, resp)
	}
	if _, err := zoo.Get(spec.Name); err == nil {
		t.Fatal("rejected inline publish left the spec registered in the zoo")
	}
}

// TestAdminDisabled: DisableAdmin removes the control plane but not the
// data plane.
func TestAdminDisabled(t *testing.T) {
	s, err := New(Config{
		Models:       []string{"DSCNN-S"},
		Options:      ModelOptions{Seed: 42, AppendSoftmax: true},
		DisableAdmin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	resp, err := http.Get(ts.URL + "/v2/repository/index")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("admin index with DisableAdmin: status %d, want 404", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v2/models/DSCNN-S", 200)
}

// TestDuplicateModelNames: a repeated name in Config.Models must not
// load (and leak) a second version of the same model — the repository's
// idempotent load collapses it, without even re-lowering the graph.
func TestDuplicateModelNames(t *testing.T) {
	s, err := New(Config{
		Models:  []string{"MicroNet-KWS-S", "MicroNet-KWS-S"},
		Options: ModelOptions{Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if idx := s.repo.Index(); len(idx) != 1 || idx[0].Version != 1 {
		t.Fatalf("duplicated name yielded index %+v, want one version-1 entry", idx)
	}
	if n := s.repo.Lowerings(); n != 1 {
		t.Fatalf("duplicated name lowered %d times, want 1", n)
	}
}

// TestReadyReportsModelsReady: the readiness body carries the count of
// models with a serving version, so a fleet router can tell "up but
// empty" from "serving" during warm-up — and the count survives the
// not-ready (503) branch too.
func TestReadyReportsModelsReady(t *testing.T) {
	s, ts := newTestServer(t)
	out := getJSON(t, ts.URL+"/v2/health/ready", 200)
	if out["ready"] != true || out["models_ready"].(float64) != float64(len(testModels)) {
		t.Fatalf("ready body = %v, want ready:true models_ready:%d", out, len(testModels))
	}
	s.ready.Store(false)
	out = getJSON(t, ts.URL+"/v2/health/ready", 503)
	if out["ready"] != false {
		t.Fatalf("not-ready body = %v", out)
	}
	if _, ok := out["models_ready"]; !ok {
		t.Fatalf("not-ready body dropped models_ready: %v", out)
	}
	s.ready.Store(true)
}

// TestRepoIndexReportsFreeBytes: the index top level precomputes
// free_bytes = budget − planned for budgeted repositories and -1 for
// unbudgeted ones, so the placer never has to diff two gauges.
func TestRepoIndexReportsFreeBytes(t *testing.T) {
	_, ts := newTestServer(t) // unbudgeted
	out := getJSON(t, ts.URL+"/v2/repository/index", 200)
	if out["free_bytes"].(float64) != -1 {
		t.Fatalf("unbudgeted index free_bytes = %v, want -1", out["free_bytes"])
	}

	budget := 4 << 20
	s, err := New(Config{
		Models:         []string{"DSCNN-S"},
		Options:        ModelOptions{Seed: 42, AppendSoftmax: true},
		PoolSize:       1,
		RAMBudgetBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts2.Close(); s.Close() })
	out = getJSON(t, ts2.URL+"/v2/repository/index", 200)
	free := out["free_bytes"].(float64)
	planned := out["ram_planned_bytes"].(float64)
	if planned <= 0 || free != float64(budget)-planned {
		t.Fatalf("budgeted index free_bytes = %v, want %d - %v", free, budget, planned)
	}
}

// TestDrain checks the lifecycle: after Close, readiness fails and infer
// returns 503.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t)
	s.Close()
	getJSON(t, ts.URL+"/v2/health/ready", 503)
	e, _ := zoo.Get("MicroNet-KWS-S")
	elems := e.Spec.InputH * e.Spec.InputW * e.Spec.InputC
	body, _ := json.Marshal(v2InferRequest{Inputs: []v2Tensor{{Name: "input", Datatype: "FP32", Data: make([]float64, elems)}}})
	resp, err := http.Post(ts.URL+"/v2/models/MicroNet-KWS-S/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer after drain: status %d, want 503", resp.StatusCode)
	}
}

// TestListenAndServeDrains drives the SIGTERM path through serve: after
// cancel, readiness answers 503 while the listener still accepts (the
// grace window), an infer that started before the cancel answers 200
// even though it finishes after the listener closed, serve returns nil,
// and the drained repository refuses further loads.
func TestListenAndServeDrains(t *testing.T) {
	s, err := New(Config{
		Models:   []string{"MicroNet-KWS-S"},
		Options:  ModelOptions{Seed: 42, AppendSoftmax: true},
		PoolSize: 1,
		Logger:   discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Take the one pooled interpreter and make the pool channel
	// unbuffered: an infer then parks in Pool.Get until the test hands it
	// the interpreter, and in Pool.Put until the test takes it back, so
	// the request is provably inside the handler before the cancel and
	// still in flight when the listener closes.
	v, err := s.repo.acquire("MicroNet-KWS-S")
	if err != nil {
		t.Fatal(err)
	}
	ip := <-v.pool.ch
	v.pool.ch = make(chan *tflm.Interpreter)
	v.release()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, ln) }()

	// Every request dials anew, so an HTTP answer proves the listener
	// still accepts.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	inferred := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(v2InferRequest{Inputs: []v2Tensor{{Name: "input", Datatype: "FP32", Data: make([]float64, 490)}}})
		resp, err := client.Post("http://"+addr+"/v2/models/MicroNet-KWS-S/infer", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		inferred <- err
	}()
	select {
	case v.pool.ch <- ip: // the infer is past the readiness check and holds the interpreter
	case err := <-inferred:
		t.Fatalf("infer answered before it reached the pool: %v", err)
	}
	cancel()

	waitFor(t, func() bool {
		resp, err := client.Get("http://" + addr + "/v2/health/ready")
		if err != nil {
			t.Fatalf("readiness probe after cancel: %v (listener closed before readiness failed)", err)
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	}, "readiness to fail while the listener still accepts")
	waitFor(t, func() bool {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return true
		}
		conn.Close()
		return false
	}, "the listener to close after the grace window")

	<-v.pool.ch // let the in-flight infer put its interpreter back and answer
	if err := <-inferred; err != nil {
		t.Fatalf("infer started before the cancel: %v, want 200", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v after a clean drain, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not return after the drain")
	}
	if _, err := s.Repository().LoadZoo("DSCNN-S", ModelOptions{}); !errors.Is(err, ErrRepositoryClosed) {
		t.Fatalf("load after the drain: %v, want ErrRepositoryClosed", err)
	}
}

// TestAdminSpecFileAllOrNothing: a spec file whose second spec
// collides with a built-in model answers the spec_file load with 400 and
// registers none of the file — its valid first spec must not linger in
// the catalogue.
func TestAdminSpecFileAllOrNothing(t *testing.T) {
	_, ts := newTestServer(t)
	ok := testSpec(t, "DSCNN-S")
	ok.Name = "SpecFile-AllOrNothing-Test"
	t.Cleanup(func() { zoo.Unregister(ok.Name) })
	path := filepath.Join(t.TempDir(), "frontier.json")
	writeTestSpecFile(t, path, ok, testSpec(t, "DSCNN-S"))

	body, _ := json.Marshal(map[string]string{"spec_file": path})
	code, resp := postJSON(t, ts.URL+"/v2/repository/models/"+ok.Name+"/load", string(body))
	if code != http.StatusBadRequest {
		t.Fatalf("spec_file load with a built-in collision: code %d (%v), want 400", code, resp)
	}
	if _, err := zoo.Get(ok.Name); err == nil {
		t.Fatalf("%s stayed in the catalogue after its spec file was rejected", ok.Name)
	}
}
