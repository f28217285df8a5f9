package micronets

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"micronets/internal/arch"
	"micronets/internal/graph"
	"micronets/internal/tensor"
	"micronets/internal/tflm"
)

func TestModelAndDeployFacade(t *testing.T) {
	spec, err := Model("MicroNet-KWS-S")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(spec, DeviceS, DeployOptions{AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	if dep.FitsErr != nil {
		t.Fatalf("KWS-S must fit the small MCU: %v", dep.FitsErr)
	}
	paper, err := Paper("MicroNet-KWS-S")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dep.LatencySeconds-paper.LatS)/paper.LatS > 0.10 {
		t.Fatalf("facade latency %.3f vs paper %.3f", dep.LatencySeconds, paper.LatS)
	}
	if dep.EnergyMJ <= 0 || dep.ActivePowerMW <= 0 {
		t.Fatal("energy/power must be positive")
	}
	if len(dep.Layers) == 0 {
		t.Fatal("per-layer breakdown missing")
	}
}

func TestDeployNotFitting(t *testing.T) {
	spec, err := Model("MicroNet-KWS-L")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(spec, DeviceS, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dep.FitsErr == nil {
		t.Fatal("KWS-L must not fit the small MCU (Table 4)")
	}
}

// TestDeployModelJoinsFitAndUnsupportedErrors: a model that BOTH
// overflows the device SRAM and uses a transposed conv must report both
// problems — the unsupported-op check used to silently overwrite the
// FitsDevice error.
func TestDeployModelJoinsFitAndUnsupportedErrors(t *testing.T) {
	// 64x64x1 input into a 256-channel stride-1 conv: the activation
	// arena alone (64*64*256 = 1 MB) overflows every device class; the
	// trailing transposed conv is unsupported by the runtime.
	spec := &arch.Spec{
		Name: "overflow-tconv-test", Task: "ad", Source: "repro",
		InputH: 64, InputW: 64, InputC: 1, NumClasses: 0,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 256, Stride: 1},
			{Kind: arch.TransposedConv, KH: 3, KW: 3, OutC: 1, Stride: 2},
		},
	}
	dep, err := Deploy(spec, DeviceS, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dep.FitsErr == nil {
		t.Fatal("model must not be deployable")
	}
	msg := dep.FitsErr.Error()
	if !strings.Contains(msg, "does not fit") {
		t.Fatalf("FitsErr lost the SRAM overflow: %q", msg)
	}
	if !strings.Contains(msg, "unsupported by the runtime") {
		t.Fatalf("FitsErr lost the unsupported-op report: %q", msg)
	}
}

func TestStatsOnlyModelsRejected(t *testing.T) {
	if _, err := Model("ProxylessNas"); err == nil {
		t.Fatal("stats-only entries must not return a spec")
	}
	if _, err := Model("nope"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestModelNamesNonEmpty(t *testing.T) {
	if len(ModelNames()) < 20 {
		t.Fatalf("zoo too small: %d entries", len(ModelNames()))
	}
}

func TestFourBitDeploySmaller(t *testing.T) {
	spec, err := Model("MicroNet-KWS-L")
	if err != nil {
		t.Fatal(err)
	}
	d8, err := Deploy(spec, DeviceM, DeployOptions{WeightBits: 8, ActBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	d4, err := Deploy(spec, DeviceM, DeployOptions{WeightBits: 4, ActBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d4.Report.ModelFlash() >= d8.Report.ModelFlash() {
		t.Fatal("4-bit weights must shrink flash (Table 2)")
	}
	if d4.Report.ArenaBytes >= d8.Report.ArenaBytes {
		t.Fatal("4-bit activations must shrink the arena (Table 2)")
	}
	if d4.LatencySeconds <= d8.LatencySeconds {
		t.Fatal("4-bit emulation must cost latency (Figure 10)")
	}
}

func TestClassifyBatchFacade(t *testing.T) {
	spec, err := Model("MicroNet-KWS-S")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	xs := make([]*tensor.Tensor, 5)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 1, spec.InputH, spec.InputW, spec.InputC).
			Reshape(spec.InputH, spec.InputW, spec.InputC)
	}
	classes, scores, err := ClassifyBatch(spec, DeployOptions{AppendSoftmax: true}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != len(xs) || len(scores) != len(xs) {
		t.Fatalf("got %d classes / %d scores for %d inputs", len(classes), len(scores), len(xs))
	}
	for i, c := range classes {
		if c < 0 || c >= spec.NumClasses {
			t.Fatalf("input %d: class %d out of range", i, c)
		}
		if scores[i] < 0 || scores[i] > 1 {
			t.Fatalf("input %d: softmax score %f out of range", i, scores[i])
		}
	}
	// Batched classification must agree with the one-at-a-time facade on
	// the same lowered model (same Seed -> same synthetic weights).
	rng2 := rand.New(rand.NewSource(0))
	m, err := graph.FromSpec(spec, rng2, graph.LowerOptions{AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := tflm.NewInterpreter(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		cls, score, err := ip.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		if cls != classes[i] || score != scores[i] {
			t.Fatalf("input %d: batch (%d, %f) vs single (%d, %f)", i, classes[i], scores[i], cls, score)
		}
	}
}

// TestRepositoryFacadeEndToEnd: the server's own repository drives a live
// handler from Go — boot one model, load a second through
// srv.Repository(), hot-swap and unload while the handler stays up, and
// observe every transition through Index.
func TestRepositoryFacadeEndToEnd(t *testing.T) {
	deploy := DeployOptions{Seed: 42, AppendSoftmax: true}
	h, srv, err := ServeHandler(ServeOptions{
		Models:   []string{"DSCNN-S"},
		PoolSize: 1,
		Deploy:   deploy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	repo := srv.Repository()
	if _, err := repo.LoadZoo("MicroNet-KWS-S", deploy); err != nil {
		t.Fatal(err)
	}

	idx := repo.Index()
	if len(idx) != 2 {
		t.Fatalf("index has %d entries, want 2: %+v", len(idx), idx)
	}
	for _, st := range idx {
		if st.State != StateReady || st.PoolSize != 1 {
			t.Fatalf("loaded entry not READY/pool-1: %+v", st)
		}
	}

	// Hot-swap KWS-S to a different seed from Go while the HTTP surface is
	// live, then verify the data path still answers.
	spec, err := Model("MicroNet-KWS-S")
	if err != nil {
		t.Fatal(err)
	}
	st, err := repo.Swap(spec, DeployOptions{Seed: 7, AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.State != StateReady {
		t.Fatalf("swap status %+v, want READY version 2", st)
	}
	body := `{"inputs":[{"name":"input","datatype":"FP32","data":[` +
		strings.Repeat("0.5,", 489) + `0.5]}]}`
	resp, err := http.Post(ts.URL+"/v2/models/MicroNet-KWS-S/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("infer after swap: status %d", resp.StatusCode)
	}

	// Unload from Go: the HTTP surface 404s the name once the drain
	// completes, without the server restarting.
	if err := repo.Unload("DSCNN-S"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("DSCNN-S never drained out of the index")
		}
		found := false
		for _, st := range repo.Index() {
			if st.Name == "DSCNN-S" {
				found = true
			}
		}
		if !found {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	r2, err := http.Get(ts.URL + "/v2/models/DSCNN-S")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 404 {
		t.Fatalf("metadata of unloaded model: status %d, want 404", r2.StatusCode)
	}
}

// TestServeHandlerEndToEnd: the public embedding entry point serves a
// live infer round-trip.
func TestServeHandlerEndToEnd(t *testing.T) {
	h, srv, err := ServeHandler(ServeOptions{
		Models: []string{"MicroNet-KWS-S"},
		Deploy: DeployOptions{Seed: 42, AppendSoftmax: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v2/health/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ready: status %d", resp.StatusCode)
	}
	body := `{"inputs":[{"name":"input","datatype":"FP32","shape":[490],"data":[` +
		strings.Repeat("0.5,", 489) + `0.5]}]}`
	r2, err := http.Post(ts.URL+"/v2/models/MicroNet-KWS-S/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != 200 {
		t.Fatalf("infer: status %d", r2.StatusCode)
	}
	var out struct {
		Outputs []struct {
			Name string    `json:"name"`
			Data []float64 `json:"data"`
		} `json:"outputs"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range out.Outputs {
		if o.Name == "class" && len(o.Data) == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no argmax class in response: %+v", out)
	}
}
