// Command bench is the repository's fixed performance harness: four
// seeded workloads driven through the real stack, built in-process from
// public functions only, each scored by the same five end-to-end metrics
// and — on a separate traced run — decomposed layer by layer.
//
// Usage, from the repository root (run.sh builds into .bench_build, then
// runs the binary with the arguments it was given):
//
//	bash bench/run.sh -workload kws_open -seed 1              # end-to-end metrics
//	bash bench/run.sh -workload cascade_rows -seed 1 -trace 1 # per-layer metrics + span file
//	bash bench/run.sh -workload all -seed 1                   # every workload, one result line each
//	bash bench/run.sh -selfcheck -runs 10                     # same-code noise table (bench/NOISE.md)
//	go test -C bench ./...                                    # one-second smoke run of every workload
//
// bench is a module of its own (bench/go.mod, replacing micronets with the
// checkout it sits in), so the repository's own `go build ./...` and
// `go test ./...` leave it alone. BENCHMARK.json at the repository root is
// the contract: workload and metric names, units and regression bounds;
// its command is bench/run.sh, so a measuring run leaves nothing outside
// its checkout.
//
// The last line of standard output is one JSON object with exactly the
// keys correct, attempted, failed and metrics; the line before it is the
// full record (provenance, durations, printed-only statistics). Any
// failed unit makes the process exit 1. See bench/README.md for the
// workloads, the metric definitions and how to read a trace file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options sizes one run. The defaults are the measured configuration;
// the smoke test shrinks them so every code path runs in about a second.
type options struct {
	seed    int64
	seconds float64 // timed phase
	warmup  float64 // discarded load before the timed phase
	// setupReps is how many cold builds of the serving stack (or DNAS
	// warm starts, a tenth as many) setup_s is the median of.
	setupReps int
	// ladderCalls caps the sequential calls per ladder rung; rungs are
	// also time-boxed so a 50 ms model cannot overrun the traced run.
	ladderCalls int
	// bodies is the number of distinct seeded request bodies (and oracle
	// answers) per serving workload; probeRows sizes the cascade's
	// threshold probe.
	bodies    int
	probeRows int
	// nasTrials and dnasSteps size one nas_sweep pass and its warm start.
	nasTrials int
	dnasSteps int
	outDir    string // span files land here
}

func defaultOptions() options {
	return options{
		seed: 1, seconds: 22, warmup: 3, setupReps: 31, ladderCalls: 200,
		bodies: 32, probeRows: 512, nasTrials: 512, dnasSteps: 10,
		outDir: filepath.Join("bench", "out"),
	}
}

// workload is one named traffic mix. run measures it: untraced for the
// end-to-end metrics, traced for the per-layer ones.
type workload struct {
	name string
	run  func(o options, trace bool) (*outcome, error)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order; why
// each exists is recorded there and in bench/README.md.
var workloads = []workload{
	{kwsOpen.name, kwsOpen.run},
	{vwwClosed.name, vwwClosed.run},
	{cascadeRows.name, cascadeRows.run},
	{"nas_sweep", runNAS},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome is everything one run learned: the contract result plus the
// record printed before it.
type outcome struct {
	result result
	record record
}

// record is the provenance line: what ran, where, for how long, and the
// statistics that are printed for the record but carry no bound.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Host       hostInfo           `json:"host"`
	GitSHA     string             `json:"git_sha"`
	Durations  map[string]float64 `json:"durations_s"`
	Attempted  int                `json:"attempted"`
	Succeeded  int                `json:"succeeded"`
	Failed     int                `json:"failed"`
	WithinSLO  int                `json:"within_limit"`
	Samples    int                `json:"latency_samples"`
	Printed    map[string]float64 `json:"printed_only"`
	Valid      bool               `json:"valid"`
	Notes      []string           `json:"notes,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
	NASDigests []string           `json:"nas_pass_digests,omitempty"`
}

// runWorkload measures one workload and checks that the emitted metric
// set is exactly the declared one, so BENCHMARK.json cannot drift from
// the code.
func runWorkload(name string, o options, trace bool) (*outcome, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	start := time.Now()
	out, err := w.run(o, trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if err := checkMetricSet(out.result.Metrics, defs); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out.record.Workload, out.record.Seed, out.record.Trace = name, o.seed, trace
	out.record.Host, out.record.GitSHA = hostFingerprint(), gitSHA()
	out.record.Attempted, out.record.Failed = out.result.Attempted, out.result.Failed
	out.record.Durations["total"] = time.Since(start).Seconds()
	return out, nil
}

// checkMetricSet verifies metrics holds exactly the metrics of defs, with
// their declared units.
func checkMetricSet(metrics map[string]value, defs []metricDef) error {
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if v.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %q, declared %q", d.Name, v.Unit, d.Unit)
		}
	}
	var extra []string
	for name := range metrics {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return nil
}

func printOutcome(out *outcome) error {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out.record); err != nil {
		return err
	}
	return enc.Encode(out.result)
}

func main() {
	def := defaultOptions()
	name := flag.String("workload", "", "workload to run: kws_open, vww_closed, cascade_rows, nas_sweep, or all")
	seed := flag.Int64("seed", def.seed, "input seed: equal seeds generate equal inputs")
	seconds := flag.Float64("seconds", def.seconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (ladder + spans under load) and a span file in bench/out")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of -runs full runs of this binary per workload and print the same-code noise table")
	runs := flag.Int("runs", 3, "runs per set for -selfcheck (10 reproduces the acceptance check)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	if *selfcheck {
		if err := runSelfcheck(*runs, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	o := def
	o.seed, o.seconds = *seed, *seconds
	exit := 0
	for _, n := range names {
		out, err := runWorkload(n, o, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := printOutcome(out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if out.result.Failed > 0 || !out.result.Correct {
			exit = 1
		}
	}
	os.Exit(exit)
}
