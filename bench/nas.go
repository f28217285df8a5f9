package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/search"
	"micronets/internal/tflm"
)

// digestPasses is how many leading passes are checked against a
// single-worker reference run.
const digestPasses = 4

// nasConfig is one nas_sweep pass. MutateFrac -1 turns mutation off, so
// the candidate set is a pure function of the seed whatever order the
// workers finish in; a distinct seed per pass defeats memoisation.
func nasConfig(o options, pass, workers int) search.Config {
	return search.Config{
		Task: "kws", Device: costDevice, Trials: o.nasTrials,
		Workers: workers, MutateFrac: -1, Seed: o.seed + int64(pass),
	}
}

// frontierDigest hashes a finished pass's frontier: every point's trial
// index, source and metrics, in the frontier's own stable order.
func frontierDigest(res *search.Result) string {
	h := sha256.New()
	for _, p := range res.Frontier.Points() {
		fmt.Fprintf(h, "%d %s %+v\n", p.Trial, p.Source, p.Metrics)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// nasPass is one measured search.Run.
type nasPass struct {
	res     *search.Result
	latency time.Duration
	doneAt  time.Duration // since its phase began
	cpu     time.Duration // process CPU time when it finished
	failed  int           // trials that errored
}

func runPass(cfg search.Config) (nasPass, error) {
	t0 := time.Now()
	res, err := search.Run(context.Background(), cfg)
	if err != nil {
		return nasPass{}, err
	}
	p := nasPass{res: res, latency: time.Since(t0)}
	for _, rec := range res.Trials {
		if rec.Err != "" {
			p.failed++
		}
	}
	return p, nil
}

// nasPhase is one stretch of back-to-back passes.
type nasPhase struct {
	passes  []nasPass
	planned time.Duration
	elapsed time.Duration
	cpu0    time.Duration // process CPU time when it began
}

// sweep runs passes from firstPass on for d.
func sweep(o options, firstPass, workers int, d time.Duration) (nasPhase, error) {
	cpu0, err := cpuTime()
	if err != nil {
		return nasPhase{}, err
	}
	ph := nasPhase{planned: d, cpu0: cpu0}
	start := time.Now()
	for i := firstPass; len(ph.passes) == 0 || time.Since(start) < d; i++ {
		p, err := runPass(nasConfig(o, i, workers))
		if err != nil {
			return nasPhase{}, fmt.Errorf("pass %d: %w", i, err)
		}
		p.doneAt = time.Since(start)
		if p.cpu, err = cpuTime(); err != nil {
			return nasPhase{}, err
		}
		ph.passes = append(ph.passes, p)
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

// runNAS measures the offline search workload. The unit is one trial.
func runNAS(o options, trace bool) (*outcome, error) {
	dur := map[string]float64{}
	mark := time.Now()
	lap := func(name string) {
		dur[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}
	workers := runtime.GOMAXPROCS(0)
	out := &outcome{record: record{Durations: dur, Printed: map[string]float64{"workers": float64(workers)}, Valid: true}}

	// Set-up: the DNAS warm start a search may begin with, repeated.
	reps := max(1, o.setupReps/10)
	if trace {
		reps = 1
	}
	var warm []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // untimed, so one warm start's garbage does not pile onto the next in peak RSS
		cfg := nasConfig(o, 0, workers)
		cfg.Trials, cfg.DNASSteps = 1, o.dnasSteps
		p, err := runPass(cfg)
		if err != nil {
			return nil, fmt.Errorf("DNAS warm start: %w", err)
		}
		if got := p.res.Trials[0].Source; got != "dnas" {
			return nil, fmt.Errorf("DNAS warm start fell back to a %s trial", got)
		}
		warm = append(warm, p.latency.Seconds())
	}
	lap("setup")

	// Oracle: the leading passes on one worker. Scheduling must not change
	// what a pass finds.
	want := make([]string, digestPasses)
	for i := range want {
		p, err := runPass(nasConfig(o, i, 1))
		if err != nil {
			return nil, fmt.Errorf("reference pass %d: %w", i, err)
		}
		want[i] = frontierDigest(p.res)
	}
	lap("oracle")

	warmup, timed := seconds(o.warmup), seconds(o.seconds)
	if trace {
		timed = seconds(o.seconds / 3)
		warmup = min(warmup, timed)
	}
	// Warm-up passes use seeds the timed phase never reaches.
	if _, err := sweep(o, 1<<20, workers, warmup); err != nil {
		return nil, err
	}
	runtime.GC()
	lap("warmup")

	gc0, pause0, mallocs0 := gcCounters()
	ph, err := sweep(o, 0, workers, timed)
	if err != nil {
		return nil, err
	}
	passes, elapsed := ph.passes, ph.elapsed
	gc1, pause1, mallocs1 := gcCounters()
	lap("timed")

	attempted, failed := 0, 0
	var latencies []float64
	var events []event
	for i, p := range passes {
		attempted += len(p.res.Trials)
		bad := p.failed
		if i < digestPasses {
			got := frontierDigest(p.res)
			out.record.NASDigests = append(out.record.NASDigests, got)
			if got != want[i] {
				bad = len(p.res.Trials) // the whole pass is wrong
				out.record.Notes = append(out.record.Notes, fmt.Sprintf("pass %d frontier digest %s, single-worker reference %s", i, got, want[i]))
			}
		}
		failed += bad
		latencies = append(latencies, ms(p.latency))
		events = append(events, event{doneAt: p.doneAt, cpu: p.cpu, latency: ms(p.latency),
			units: len(p.res.Trials), good: len(p.res.Trials) - bad, ok: bad == 0})
	}
	out.record.Succeeded, out.record.WithinSLO, out.record.Samples = attempted-failed, attempted-failed, len(latencies)
	printWholeRun(out.record.Printed, latencies, attempted-failed, elapsed)
	out.record.Printed["passes"] = float64(len(passes))
	out.result = result{Correct: failed == 0, Attempted: attempted, Failed: failed}

	if !trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.result.Metrics = bestWindowStats(events, ph.cpu0, ph.planned).metrics(rss, median(warm), out.record.Printed)
		return out, nil
	}

	// ---- per-layer: the pass split into the calls it is made of ----
	m := layerMetrics()
	last := passes[len(passes)-1].res
	var spans []span
	at := time.Duration(0)
	for i, p := range passes {
		spans = append(spans, span{TraceID: fmt.Sprintf("nas_sweep-%d-%06d", o.seed, i), Name: "search",
			StartNs: at.Nanoseconds(), EndNs: (at + p.latency).Nanoseconds()})
		at += p.latency
	}
	var lowerNs, planNs, costNs, evalNs, addNs []float64
	frontier := &search.Frontier{}
	for i := range last.Trials {
		rec := &last.Trials[i]
		if rec.Err != "" {
			continue
		}
		t0 := time.Now()
		met, err := search.Evaluate(rec.Spec, costDevice)
		if err != nil {
			return nil, fmt.Errorf("Evaluate %s: %w", rec.Spec.Name, err)
		}
		evalNs = append(evalNs, float64(time.Since(t0).Nanoseconds()))

		t0 = time.Now()
		gm, err := graph.FromSpec(rec.Spec, rand.New(rand.NewSource(1)), graph.LowerOptions{})
		if err != nil {
			return nil, fmt.Errorf("FromSpec %s: %w", rec.Spec.Name, err)
		}
		lowerNs = append(lowerNs, float64(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		if _, err := tflm.PlanMemory(gm); err != nil {
			return nil, fmt.Errorf("PlanMemory %s: %w", rec.Spec.Name, err)
		}
		planNs = append(planNs, float64(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		if _, _, err := mcu.ModelLatency(gm, costDevice); err != nil {
			return nil, fmt.Errorf("ModelLatency %s: %w", rec.Spec.Name, err)
		}
		costNs = append(costNs, float64(time.Since(t0).Nanoseconds()))

		if rec.Feasible {
			t0 = time.Now()
			frontier.Add(search.Point{Trial: rec.Trial, Source: rec.Source, Metrics: met, Record: rec})
			addNs = append(addNs, float64(time.Since(t0).Nanoseconds()))
		}
	}
	trials := float64(attempted)
	set(m, "search.evaluate_ns", mean(evalNs))
	set(m, "search.run_overhead_ns", float64(elapsed.Nanoseconds())*float64(workers)/trials-mean(evalNs))
	set(m, "search.frontier_add_ns", mean(addNs))
	set(m, "search.frontier_size", float64(last.Frontier.Size()))
	set(m, "search.trials_failed", float64(failed))
	set(m, "search.allocs_per_trial", float64(mallocs1-mallocs0)/trials)
	set(m, "search.gc_cycles_per_pass", float64(gc1-gc0)/float64(len(passes)))
	set(m, "graph.lower_ns", mean(lowerNs))
	set(m, "tflm.plan_ns", mean(planNs))
	set(m, "mcu.model_latency_ns", mean(costNs))
	set(m, "core.dnas_step_ns", median(warm)*1e9/float64(o.dnasSteps))
	set(m, "bench.gc_cycles", float64(gc1-gc0))
	set(m, "bench.gc_pause_total_ms", ms(pause1-pause0))
	path, err := writeTrace(o.outDir, "nas_sweep", o.seed, spans)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	out.record.TraceFile = path
	out.result.Metrics = m
	lap("report")
	return out, nil
}
