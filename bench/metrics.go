package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one metric. moves says which end-to-end metric, on
// which workload, a per-layer metric is expected to move (BENCHMARK.json
// has no field for it; bench/README.md renders this table).
type metricDef struct {
	Name, Unit, Better string
	moves              string
}

// endToEnd are the five user-visible metrics, the same on every workload.
// Their regression bounds live in BENCHMARK.json only. The 90th latency
// percentile is measured and printed in every record but is not one of
// them: on the review host its same-code spread on kws_open was 30-40% in
// three self-checks out of four, above the largest bound a metric may
// have (NOISE.md).
var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "goodput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// Which e2e metrics a layer should move, by workload.
const (
	movesKernels = "latency_p50_ms, goodput_per_s, cpu_ms_per_unit on vww_closed (most), cascade_rows, kws_open (least); never nas_sweep"
	movesInvoke  = "latency_p50_ms on kws_open; goodput_per_s on vww_closed and cascade_rows"
	movesSetup   = "setup_s on the serving workloads"
	movesPlan    = "goodput_per_s, cpu_ms_per_unit on nas_sweep; setup_s on the serving workloads"
	movesRSS     = "peak_rss_mb on the serving workloads"
	movesSearch  = "goodput_per_s, latency_p50_ms, cpu_ms_per_unit on nas_sweep only"
	movesServe   = "latency_p50_ms on kws_open; goodput_per_s, cpu_ms_per_unit on cascade_rows; little on vww_closed, none on nas_sweep"
	movesGraph   = "latency_p50_ms, goodput_per_s on cascade_rows only"
	movesMesh    = "latency_p50_ms, cpu_ms_per_unit on kws_open only"
	movesNone    = "validity of the run, not a target"
)

// perLayer are the traced run's metrics; layer names are package names.
// A metric whose layer a workload never enters reads 0 there.
var perLayer = []metricDef{
	{"kernels.conv_ns", "ns", "lower", movesKernels},
	{"kernels.dwconv_ns", "ns", "lower", movesKernels},
	{"kernels.dense_ns", "ns", "lower", movesKernels},
	{"kernels.other_ns", "ns", "lower", movesKernels},
	{"kernels.gmac_per_s", "1/s", "higher", movesKernels},
	{"kernels.macs_per_invoke", "count", "lower", movesKernels},
	{"kernels.bytes_moved_per_invoke", "bytes", "lower", movesKernels},

	{"tflm.invoke_ns", "ns", "lower", movesInvoke},
	{"tflm.dispatch_ns", "ns", "lower", movesInvoke},
	{"tflm.invoke_allocs", "count", "lower", movesInvoke},
	{"tflm.prepare_ns", "ns", "lower", movesSetup},
	{"tflm.new_interpreter_ns", "ns", "lower", movesSetup},
	{"tflm.plan_ns", "ns", "lower", movesPlan},
	{"tflm.arena_bytes", "bytes", "lower", movesRSS},
	{"tflm.weight_bytes", "bytes", "lower", movesRSS},

	{"graph.lower_ns", "ns", "lower", movesPlan},
	{"mcu.model_latency_ns", "ns", "lower", movesPlan},

	{"search.evaluate_ns", "ns", "lower", movesSearch},
	{"search.run_overhead_ns", "ns", "lower", movesSearch},
	{"search.frontier_add_ns", "ns", "lower", movesSearch},
	{"search.frontier_size", "count", "higher", movesSearch},
	{"search.trials_failed", "count", "lower", movesSearch},
	{"search.allocs_per_trial", "count", "lower", movesSearch},
	{"search.gc_cycles_per_pass", "count", "lower", movesSearch},

	{"core.dnas_step_ns", "ns", "lower", "setup_s on nas_sweep"},

	{"serve.repo_infer_ns", "ns", "lower", movesServe},
	{"serve.batcher_ns", "ns", "lower", movesServe},
	{"serve.handler_ns", "ns", "lower", movesServe},
	{"serve.codec_ns", "ns", "lower", movesServe},
	{"serve.loopback_ns", "ns", "lower", movesServe},
	{"serve.queue_wait_ns", "ns", "lower", movesServe},
	{"serve.invoke_under_load_ns", "ns", "lower", movesServe},
	{"serve.batch_rows_mean", "count", "higher", movesServe},
	{"serve.load_ns", "ns", "lower", movesSetup},
	{"serve.request_bytes", "bytes", "lower", movesServe},
	{"serve.errors", "count", "lower", movesServe},

	{"servegraph.infer_ns", "ns", "lower", movesGraph},
	{"servegraph.route_ns", "ns", "lower", movesGraph},
	{"servegraph.escalation_share", "share", "lower", movesGraph},
	{"servegraph.put_ns", "ns", "lower", "setup_s on cascade_rows"},

	{"mesh.hop_ns", "ns", "lower", movesMesh},
	{"mesh.hop_under_load_ns", "ns", "lower", movesMesh},
	{"mesh.retries", "count", "lower", movesMesh},
	{"mesh.ring_order_ns", "ns", "lower", movesMesh},
	{"mesh.place_ns", "ns", "lower", movesMesh},

	{"bench.gen_late_p99_ms", "ms", "lower", movesNone},
	{"bench.trace_overhead_share", "share", "lower", movesNone},
	{"bench.gc_cycles", "count", "lower", movesNone},
	{"bench.gc_pause_total_ms", "ms", "lower", movesNone},
}

// layerMetrics starts a per-layer result with every declared metric at
// 0, so a workload only sets the layers it enters.
func layerMetrics() map[string]value {
	m := make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = value{Unit: d.Unit}
	}
	return m
}

// set stores a measured value under a declared per-layer or end-to-end
// name, keeping the declared unit.
func set(m map[string]value, name string, v float64) {
	for _, defs := range [][]metricDef{perLayer, endToEnd} {
		for _, d := range defs {
			if d.Name == name {
				m[name] = value{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// ---- statistics ----

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. Empty input reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ---- windowed end-to-end statistics ----

// A timed phase is cut into windows equal windows; latency, goodput and
// CPU per unit are computed per window, and each is reported as the mean
// of its bestWindows best windows. The review host is shared: its cores
// flip between speed states ~28% apart for seconds at a time and
// neighbours stall it for a second or two, so whole-run statistics of one
// binary swing by 20-50% between runs, and so do medians over windows on
// a bad hour. The quietest windows repeat to a few percent on calm and
// bad hours alike (NOISE.md). The price is stated in README.md: a stall
// the system inflicts on itself only now and then is visible in the
// whole-run numbers printed beside these, not in these.
const (
	windows     = 16
	bestWindows = 3
	// minWindowSamples is the fewest latencies a window needs for its
	// percentiles to count.
	minWindowSamples = 3
)

// event is one finished piece of work in a timed phase: a request, or a
// search pass.
type event struct {
	doneAt  time.Duration // since the phase began
	cpu     time.Duration // process CPU time when it finished
	latency float64       // ms; only read when ok
	units   int           // units attempted
	good    int           // units answered correctly within the limit
	ok      bool          // answered, and correctly
}

// windowStats are a phase's end-to-end statistics.
type windowStats struct{ p50, p90, goodput, cpuPerUnit float64 }

// metrics renders a phase's statistics with the run's peak RSS and set-up
// time as the end-to-end metric set. The best windows' 90th percentile
// goes to the record's printed-only statistics.
func (ws windowStats) metrics(rssMB, setupS float64, printed map[string]float64) map[string]value {
	m := map[string]value{}
	set(m, "latency_p50_ms", ws.p50)
	set(m, "goodput_per_s", ws.goodput)
	set(m, "cpu_ms_per_unit", ws.cpuPerUnit)
	set(m, "peak_rss_mb", rssMB)
	set(m, "setup_s", setupS)
	printed["latency_p90_ms_best_windows"] = ws.p90
	return m
}

// printWholeRun adds a phase's whole-run statistics to the record's
// printed-only ones: latencies in ms of everything answered correctly,
// good units, and the time until the last reply.
func printWholeRun(printed map[string]float64, latencies []float64, good int, elapsed time.Duration) {
	printed["latency_p50_ms_whole_run"] = quantile(latencies, 0.50)
	printed["latency_p90_ms_whole_run"] = quantile(latencies, 0.90)
	printed["latency_p99_ms"] = quantile(latencies, 0.99)
	printed["latency_max_ms"] = quantile(latencies, 1)
	printed["latency_mean_ms"] = mean(latencies)
	printed["goodput_per_s_whole_run"] = float64(good) / elapsed.Seconds()
	printed["timed_s"] = elapsed.Seconds()
}

// meanOfBest averages the bestWindows lowest (or highest) values.
func meanOfBest(xs []float64, highest bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if highest {
		s = s[len(s)-bestWindows:]
	}
	return mean(s[:bestWindows])
}

// bestWindowStats assigns events to windows of d/windows by completion
// time (work finishing after d belongs to the last window) and computes
// each window's latency percentiles, goodput and CPU per attempted unit,
// the last two over the span from the previous window's last completion
// to this window's, so they are exact whatever the window cuts through.
// Each statistic is the mean of its best windows. A phase too short to
// fill bestWindows windows reads its whole-phase statistics. cpu0 is the
// CPU time when the phase began.
func bestWindowStats(events []event, cpu0 time.Duration, d time.Duration) windowStats {
	sorted := append([]event(nil), events...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].doneAt < sorted[j].doneAt })
	width := d / windows
	var p50s, p90s, goodputs, cpus, all []float64
	units, good := 0, 0
	lastCPU, lastDone := cpu0, time.Duration(0)
	for w, i := 0, 0; w < windows; w++ {
		var lat []float64
		wUnits, wGood := 0, 0
		endCPU, endDone := lastCPU, lastDone
		for ; i < len(sorted) && (w == windows-1 || sorted[i].doneAt < time.Duration(w+1)*width); i++ {
			e := sorted[i]
			wUnits, wGood, endCPU, endDone = wUnits+e.units, wGood+e.good, e.cpu, e.doneAt
			if e.ok {
				lat = append(lat, e.latency)
			}
		}
		all = append(all, lat...)
		units, good = units+wUnits, good+wGood
		if len(lat) >= minWindowSamples {
			p50s, p90s = append(p50s, quantile(lat, 0.50)), append(p90s, quantile(lat, 0.90))
			goodputs = append(goodputs, float64(wGood)/(endDone-lastDone).Seconds())
			cpus = append(cpus, ms(endCPU-lastCPU)/float64(wUnits))
		}
		lastCPU, lastDone = endCPU, endDone
	}
	if len(p50s) < bestWindows {
		if units == 0 {
			return windowStats{}
		}
		return windowStats{quantile(all, 0.50), quantile(all, 0.90),
			float64(good) / lastDone.Seconds(), ms(lastCPU-cpu0) / float64(units)}
	}
	return windowStats{meanOfBest(p50s, false), meanOfBest(p90s, false), meanOfBest(goodputs, true), meanOfBest(cpus, false)}
}

// ---- process accounting ----

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// gcCounters snapshots the collector's cycle count and total pause, and
// the cumulative heap-object allocation count.
func gcCounters() (cycles uint32, pause time.Duration, mallocs uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, time.Duration(m.PauseTotalNs), m.Mallocs
}

// ---- provenance ----

// hostInfo fingerprints the measuring host; numbers from different
// fingerprints are not comparable.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
}

func hostFingerprint() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), CPUModel: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
	}
	if h.GOGC == "" {
		h.GOGC = "default"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitSHA is the commit the binary was built from, as stamped by the go
// tool, with "+dirty" when the tree had uncommitted changes; "unknown"
// outside a git checkout.
func gitSHA() string {
	sha, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				sha = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return sha + dirty
}
