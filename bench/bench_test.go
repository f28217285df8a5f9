package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// smokeOptions shrinks every workload to about a second so the whole
// harness runs under `go test ./...`, race detector included.
func smokeOptions(t *testing.T) options {
	o := defaultOptions()
	o.seconds, o.warmup, o.setupReps, o.ladderCalls = 1, 0.2, 2, 1
	o.bodies, o.probeRows, o.nasTrials, o.dnasSteps = 2, 64, 24, 1
	o.outDir = t.TempDir()
	return o
}

func loadContract(t *testing.T) *contract {
	t.Helper()
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCode pins BENCHMARK.json to the tables the harness
// measures from: same workloads, same metrics, same units, same order.
func TestContractMatchesCode(t *testing.T) {
	c := loadContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, want)
	}
	var e2e, layers []metricDef
	for _, d := range c.EndToEnd {
		e2e = append(e2e, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range c.PerLayer {
		layers = append(layers, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	strip := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
		}
		return out
	}
	if !reflect.DeepEqual(e2e, strip(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness declares %v", e2e, strip(endToEnd))
	}
	if !reflect.DeepEqual(layers, strip(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer differs from the harness's table:\n%v\n%v", layers, strip(perLayer))
	}
}

// TestSmoke runs every workload untraced and traced and asserts only
// correctness and the emitted metric names — never a timing.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := smokeOptions(t)
			var digests [2][]string
			for i, trace := range []bool{false, true} {
				out, err := runWorkload(w.name, o, trace)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				r := out.result
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d notes=%v", trace, r.Correct, r.Attempted, r.Failed, out.record.Notes)
				}
				want := map[string]string{}
				if trace {
					for _, d := range c.PerLayer {
						want[d.Name] = d.Unit
					}
				} else {
					for _, d := range c.EndToEnd {
						want[d.Name] = d.Unit
					}
				}
				got := map[string]string{}
				for name, v := range r.Metrics {
					got[name] = v.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trace=%v: emitted metrics %v, BENCHMARK.json declares %v", trace, got, want)
				}
				digests[i] = out.record.NASDigests
				if trace {
					checkTraceFile(t, out.record.TraceFile, w.name)
				}
			}
			// Equal seeds must find equal frontiers, run after run.
			if n := min(len(digests[0]), len(digests[1])); !reflect.DeepEqual(digests[0][:n], digests[1][:n]) {
				t.Errorf("pass digests differ between two runs of one seed: %v vs %v", digests[0], digests[1])
			}
		})
	}
}

// checkTraceFile asserts the span file parses and that every request's
// spans share its id along the workload's whole path.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	layers := map[string]map[string]bool{} // trace id -> layers seen
	for _, s := range tf.Spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s/%s ends before it starts", s.TraceID, s.Name)
		}
		if layers[s.TraceID] == nil {
			layers[s.TraceID] = map[string]bool{}
		}
		layers[s.TraceID][s.Name] = true
	}
	var want []string
	switch workload {
	case "kws_open":
		want = []string{"client", "mesh", "serve"}
	case "vww_closed", "cascade_rows":
		want = []string{"client", "serve"}
	default:
		want = []string{"search"}
	}
	for id, seen := range layers {
		for _, l := range want {
			if !seen[l] {
				t.Errorf("trace %s has no %s span (has %v)", id, l, seen)
			}
		}
	}
}
