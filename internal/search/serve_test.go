package search

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"micronets/internal/mcu"
	"micronets/internal/serve"
)

// TestExportedFrontierModelServes proves the search → serving loop end
// to end in-process: a frontier winner exported by the harness is loaded
// into a server's repository under its exported name and answers a live
// /v2/models/{name}/infer request.
func TestExportedFrontierModelServes(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Task: "kws", Device: mcu.F446RE, Trials: 8, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Frontier.Points()
	if len(pts) == 0 {
		t.Fatal("empty frontier")
	}
	file, names, err := ExportFrontier(pts, "NAS-serve-kws-S", "search_test")
	if err != nil {
		t.Fatal(err)
	}

	opts := serve.ModelOptions{AppendSoftmax: true}
	srv, err := serve.New(serve.Config{Models: []string{}, Options: opts, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := file.Specs[0]
	if _, err := srv.Repository().Load(spec, opts); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	elems := spec.InputH * spec.InputW * spec.InputC
	data := make([]string, elems)
	for i := range data {
		data[i] = "0.25"
	}
	body := fmt.Sprintf(`{"inputs":[{"name":"input","shape":[%d,%d,%d],"datatype":"FP32","data":[%s]}]}`,
		spec.InputH, spec.InputW, spec.InputC, strings.Join(data, ","))
	resp, err := ts.Client().Post(ts.URL+"/v2/models/"+names[0]+"/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("infer on exported model returned %d", resp.StatusCode)
	}
	var out struct {
		ModelName string `json:"model_name"`
		Outputs   []struct {
			Name string    `json:"name"`
			Data []float64 `json:"data"`
		} `json:"outputs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ModelName != names[0] {
		t.Fatalf("served model %q, want %q", out.ModelName, names[0])
	}
	gotScores := false
	for _, o := range out.Outputs {
		if o.Name == "scores" && len(o.Data) == spec.NumClasses {
			gotScores = true
		}
	}
	if !gotScores {
		t.Fatalf("no %d-way scores tensor in response: %+v", spec.NumClasses, out.Outputs)
	}
}

// TestPublishFrontierHotLoads closes the continuous search→serve loop: a
// server boots with NO searched models, a finished search publishes its
// frontier through the /v2/repository admin API (inline specs, no shared
// filesystem), and the models serve infers — zero restarts.
func TestPublishFrontierHotLoads(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Task: "kws", Device: mcu.F446RE, Trials: 8, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Frontier.Points()
	if len(pts) == 0 {
		t.Fatal("empty frontier")
	}
	file, _, err := ExportFrontier(SpreadPoints(pts, 2), "NAS-publish-kws-S", "publish_test")
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Models:   []string{"MicroNet-KWS-S"},
		Options:  serve.ModelOptions{AppendSoftmax: true},
		PoolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	loaded, err := PublishFrontier(context.Background(), ts.URL, file)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(file.Specs) {
		t.Fatalf("published %d of %d models", len(loaded), len(file.Specs))
	}

	for i, name := range loaded {
		spec := file.Specs[i]
		elems := spec.InputH * spec.InputW * spec.InputC
		data := make([]string, elems)
		for i := range data {
			data[i] = "0.1"
		}
		body := fmt.Sprintf(`{"inputs":[{"name":"input","datatype":"FP32","data":[%s]}]}`, strings.Join(data, ","))
		resp, err := ts.Client().Post(ts.URL+"/v2/models/"+name+"/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("published model %s: infer status %d", name, resp.StatusCode)
		}
	}
}
