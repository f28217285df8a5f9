// Serving example: boot the in-process inference server under a
// device-class RAM budget, hit the KServe-v2 endpoints like an external
// client, then drive the model-repository control plane — hot-load a
// model with zero restarts, read the budget-planned capacity from the
// index, and watch an over-budget load get a structured 409. The admin
// endpoints are the one way to change a running server's models over the
// wire; a Go program embedding srv.Handler() in its own HTTP server
// drives the same repository directly through srv.Repository().
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"time"

	"micronets/internal/serve"
)

const model = "MicroNet-KWS-S"

func main() {
	log.SetFlags(0)
	// Quiet the per-request log so the example output stays readable.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := "127.0.0.1:18151"
	srv, err := serve.New(serve.Config{
		Models: []string{model},
		// Emulate the large MCU: every load is planned against 512 KB of
		// RAM, so pool sizes come from the tflm.PlanMemory arena instead
		// of fixed counts.
		RAMBudgetBytes: 512 * 1024,
		PoolSize:       2,
		Logger:         logger,
		Options:        serve.ModelOptions{Seed: 42, AppendSoftmax: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, addr) }()

	base := "http://" + addr
	waitReady(base)

	var meta struct {
		Inputs []struct {
			Shape []int `json:"shape"`
		} `json:"inputs"`
	}
	getJSON(base+"/v2/models/"+model, &meta)
	shape := meta.Inputs[0].Shape
	elems := shape[0] * shape[1] * shape[2]
	fmt.Printf("model %s ready, input shape %v\n", model, shape)

	// A synthetic "spectrogram": any FP32 payload of the right length.
	data := make([]float64, elems)
	for i := range data {
		data[i] = float64(i%7)/7.0 - 0.5
	}
	body, _ := json.Marshal(map[string]any{
		"inputs": []map[string]any{{
			"name": "input", "datatype": "FP32", "shape": shape, "data": data,
		}},
	})
	resp, err := http.Post(base+"/v2/models/"+model+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Outputs []struct {
			Name string    `json:"name"`
			Data []float64 `json:"data"`
		} `json:"outputs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	for _, o := range out.Outputs {
		switch o.Name {
		case "class":
			fmt.Printf("argmax class: %d\n", int(o.Data[0]))
		case "score":
			fmt.Printf("top score:    %.4f\n", o.Data[0])
		}
	}

	// ---- the control plane: hot lifecycle management, no restarts ----

	// DSCNN-S was not in the boot set; one admin POST makes it servable.
	code, status := postJSON(base+"/v2/repository/models/DSCNN-S/load", nil)
	fmt.Printf("hot-load DSCNN-S: HTTP %d, state %v, pool %v\n",
		code, status["state"], status["pool_size"])

	// The index shows every version with its budget-planned capacity.
	var index struct {
		Models []struct {
			Name            string `json:"name"`
			Version         int    `json:"version"`
			State           string `json:"state"`
			PoolSize        int    `json:"pool_size"`
			PlannedRAMBytes int    `json:"planned_ram_bytes"`
		} `json:"models"`
		BudgetBytes  int `json:"ram_budget_bytes"`
		PlannedBytes int `json:"ram_planned_bytes"`
	}
	getJSON(base+"/v2/repository/index", &index)
	fmt.Printf("repository: %d/%d budget bytes planned\n", index.PlannedBytes, index.BudgetBytes)
	for _, m := range index.Models {
		fmt.Printf("  %-16s v%d %-7s pool=%d ram=%dB\n",
			m.Name, m.Version, m.State, m.PoolSize, m.PlannedRAMBytes)
	}

	// MicroNet-AD-L needs ~750 KB for its shared weights plus one arena —
	// more than the budget has left. The repository answers with a
	// structured 409 instead of OOMing.
	code, conflict := postJSON(base+"/v2/repository/models/MicroNet-AD-L/load", nil)
	fmt.Printf("over-budget load: HTTP %d code=%v needed=%v budget=%v planned=%v\n",
		code, conflict["code"], conflict["needed_bytes"], conflict["budget_bytes"], conflict["planned_bytes"])

	// ---- inference graphs: a two-stage cascade over the loaded models ----

	// DSCNN-S (7 MOps) gates for MicroNet-KWS-S: a stage answers when its
	// top softmax probability clears the threshold, otherwise the request
	// escalates to the next stage. (Synthetic weights give a near-uniform
	// 12-class head, so the demo threshold sits just inside the gate's
	// 0.11-0.12 confidence band to show both outcomes; real traffic would
	// run 0.6-0.9.)
	spec := map[string]any{
		"description": "gate answers confident traffic, escalate the rest",
		"root": map[string]any{
			"kind": "cascade", "threshold": 0.115,
			"children": []map[string]any{
				{"kind": "model", "model": "DSCNN-S"},
				{"kind": "model", "model": model},
			},
		},
	}
	specBody, _ := json.Marshal(spec)
	code, reg := putJSON(base+"/v2/graphs/demo-cascade", specBody)
	fmt.Printf("register cascade: HTTP %d revision=%v models=%v\n", code, reg["revision"], reg["models"])

	// Route a few requests through the graph; served_by says which stage
	// answered each row, escalations how many stages it climbed.
	var graphOut struct {
		ServedBy    []string `json:"served_by"`
		Escalations []int    `json:"escalations"`
	}
	for i := 0; i < 4; i++ {
		for j := range data {
			data[j] = float64((i*31+j)%11)/11.0 - 0.5
		}
		body, _ = json.Marshal(map[string]any{
			"inputs": []map[string]any{{
				"name": "input", "datatype": "FP32", "shape": shape, "data": data,
			}},
		})
		resp, err := http.Post(base+"/v2/graphs/demo-cascade/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&graphOut); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("  request %d: served by %-16s escalations=%d\n", i, graphOut.ServedBy[0], graphOut.Escalations[0])
	}

	// The graph's own counters expose the gate-hit rate.
	var gstats struct {
		Stats struct {
			Requests uint64 `json:"requests"`
			Nodes    []struct {
				Kind        string `json:"kind"`
				GateHits    uint64 `json:"gate_hits"`
				Escalations uint64 `json:"escalations"`
			} `json:"nodes"`
		} `json:"stats"`
	}
	getJSON(base+"/v2/graphs/demo-cascade", &gstats)
	for _, n := range gstats.Stats.Nodes {
		if n.Kind == "cascade" {
			fmt.Printf("cascade stats: %d requests, %d gate hits, %d escalations\n",
				gstats.Stats.Requests, n.GateHits, n.Escalations)
		}
	}

	// A referenced model cannot be unloaded out from under the graph.
	code, blocked := postJSON(base+"/v2/repository/models/DSCNN-S/unload", nil)
	fmt.Printf("unload gated model: HTTP %d code=%v graphs=%v\n", code, blocked["code"], blocked["graphs"])

	cancel() // SIGTERM-equivalent: drain and exit
	if err := <-done; err != nil {
		log.Fatalf("drain: %v", err)
	}
	fmt.Println("server drained cleanly")
}

func waitReady(base string) {
	for i := 0; i < 100; i++ {
		resp, err := http.Get(base + "/v2/health/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	log.Fatal("server never became ready")
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}

func postJSON(url string, body []byte) (int, map[string]any) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	return resp.StatusCode, out
}

func putJSON(url string, body []byte) (int, map[string]any) {
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	return resp.StatusCode, out
}
