package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/mesh"
	"micronets/internal/serve"
	"micronets/internal/servegraph"
	"micronets/internal/tflm"
)

// costDevice is the MCU the cost-model layers are timed against: the
// medium device nas_sweep searches for.
var costDevice = mcu.F746ZG

// timeCalls calls f sequentially calls times after one discarded warm-up
// call and returns each call's nanoseconds.
func timeCalls(calls int, f func() error) ([]float64, error) {
	ns := make([]float64, 0, calls)
	for i := -1; i < calls; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		if i >= 0 {
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		}
	}
	return ns, nil
}

// setupStepReps is how often each one-off set-up step (lower, plan,
// prepare, load, put) is repeated; its median is reported.
const setupStepReps = 5

func medianOf(reps int, f func() error) (float64, error) {
	ns, err := timeCalls(reps, f)
	return median(ns), err
}

// rung is one boundary of the ladder: a call that does one unit of the
// workload's work from that layer down, and its time in every round.
type rung struct {
	name string
	call func() error
	ns   []float64
}

// climb visits every rung once per round, in order, for up to calls
// rounds or until box has elapsed (but at least 3 rounds). Interleaving
// the rungs means host drift hits them all alike, so the per-round
// difference of two rungs is a layer's self time. A visit calls the rung
// twice and times the second call: the first puts the caches in the state
// that rung leaves them in, whatever rung ran before.
func climb(rungs []*rung, calls int, box time.Duration) error {
	start := time.Now()
	for round := 0; round < calls && (round < 3 || time.Since(start) < box); round++ {
		for _, r := range rungs {
			if err := r.call(); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			t0 := time.Now()
			if err := r.call(); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			r.ns = append(r.ns, float64(time.Since(t0).Nanoseconds()))
		}
	}
	return nil
}

// minus is the per-round difference of two rungs.
func minus(a, b []float64) []float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

// plusScaled adds w*x to sum round by round.
func plusScaled(sum, x []float64, w float64) []float64 {
	if sum == nil {
		sum = make([]float64, len(x))
	}
	for i := range x {
		sum[i] += w * x[i]
	}
	return sum
}

// modelLadder holds what is measured below the server for one model:
// the one-off set-up steps, the static sizes, and the kernel and
// interpreter rungs.
type modelLadder struct {
	lowerNs, planNs, prepareNs, newInterpNs, costNs float64
	arenaBytes, weightBytes, macs, bytesMoved       float64

	input    []int8
	ip       *tflm.Interpreter
	kernelNs [4][]float64 // conv, dwconv, dense, other: per-invoke sums, one per round
	opsNs    []float64    // per-invoke sum over all ops, one per round
	profile  rung
	invoke   rung
}

func opKindSlot(k graph.OpKind) int {
	switch k {
	case graph.OpConv2D:
		return 0
	case graph.OpDWConv2D:
		return 1
	case graph.OpDense:
		return 2
	}
	return 3
}

// newModelLadder times the set-up steps of one model and prepares its
// two rungs on a harness-owned interpreter holding row as input.
func newModelLadder(name string, row []float64) (*modelLadder, error) {
	l := &modelLadder{}
	var m *graph.Model
	var prep *tflm.Prepared
	var err error
	if l.lowerNs, err = medianOf(setupStepReps, func() (err error) { m, err = lowerZoo(name); return }); err != nil {
		return nil, err
	}
	if l.planNs, err = medianOf(setupStepReps, func() error { _, err := tflm.PlanMemory(m); return err }); err != nil {
		return nil, err
	}
	if l.costNs, err = medianOf(setupStepReps, func() error { _, _, err := mcu.ModelLatency(m, costDevice); return err }); err != nil {
		return nil, err
	}
	if l.prepareNs, err = medianOf(setupStepReps, func() (err error) { prep, err = tflm.Prepare(m); return }); err != nil {
		return nil, err
	}
	if l.newInterpNs, err = medianOf(setupStepReps, func() (err error) { l.ip, err = prep.NewInterpreter(0); return }); err != nil {
		return nil, err
	}
	l.arenaBytes, l.weightBytes = float64(l.ip.ArenaBytes()), float64(prep.WeightBytes())
	l.macs = float64(m.TotalMACs())
	for _, op := range m.Ops {
		// Computed from tensor sizes, not measured: every input and the
		// output once, plus the weights.
		for _, in := range op.Inputs {
			l.bytesMoved += float64(m.Tensors[in].Bytes())
		}
		l.bytesMoved += float64(m.Tensors[op.Output].Bytes() + op.WeightBytes())
	}
	ref := refModel{model: m}
	l.input = ref.quantize(row)
	copy(l.ip.Input(), l.input)

	visits := 0
	l.profile = rung{name: "ProfileInvoke " + name, call: func() error {
		timings, err := l.ip.ProfileInvoke()
		if visits++; visits%2 == 1 {
			return err // the untimed first call of a visit
		}
		var sum [4]float64
		total := 0.0
		for _, t := range timings {
			sum[opKindSlot(t.Kind)] += float64(t.Ns)
			total += float64(t.Ns)
		}
		for k := range sum {
			l.kernelNs[k] = append(l.kernelNs[k], sum[k])
		}
		l.opsNs = append(l.opsNs, total)
		return err
	}}
	l.invoke = rung{name: "Invoke " + name, call: l.ip.Invoke}
	return l, nil
}

// invokeAllocs counts the heap objects a warm Invoke allocates: the
// least of three counted runs, since the counter is process-wide and an
// idle server's timers allocate now and then.
func (l *modelLadder) invokeAllocs(runs int) (float64, error) {
	least := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		_, _, before := gcCounters()
		for i := 0; i < runs; i++ {
			if err := l.ip.Invoke(); err != nil {
				return 0, err
			}
		}
		_, _, after := gcCounters()
		least = min(least, float64(after-before)/float64(runs))
	}
	return least, nil
}

// traced is the per-layer run of a serving workload: the idle ladder,
// then the workload again with span collection off and on.
func (r *servingRun) traced() (*outcome, error) {
	s, o, st, out := r.servingSpec, r.o, r.st, r.out
	m := layerMetrics()
	ctx := context.Background()
	add := func(name string, v float64) { set(m, name, m[name].Value+v) }
	// A third of the run for the ladder, a third each for the untraced and
	// the traced load phase.
	third := seconds(o.seconds / 3)
	req0 := r.reqs[0]
	srv := st.servers[0]

	// ---- one-off steps and static sizes, per model ----
	ladders := make([]*modelLadder, len(s.models))
	for i, mw := range s.models {
		// Any row of the first request stands in for the model's input;
		// kernel time does not depend on the data.
		l, err := newModelLadder(mw.name, req0.rows[i%len(req0.rows)])
		if err != nil {
			return nil, fmt.Errorf("ladder for %s: %w", mw.name, err)
		}
		ladders[i] = l
		allocs, err := l.invokeAllocs(min(20, o.ladderCalls))
		if err != nil {
			return nil, err
		}
		add("tflm.invoke_allocs", mw.weight*allocs)
		add("kernels.macs_per_invoke", mw.weight*l.macs)
		add("kernels.bytes_moved_per_invoke", mw.weight*l.bytesMoved)
		add("tflm.prepare_ns", l.prepareNs)
		add("tflm.new_interpreter_ns", l.newInterpNs)
		add("tflm.plan_ns", l.planNs)
		add("tflm.arena_bytes", l.arenaBytes)
		add("tflm.weight_bytes", l.weightBytes)
		add("graph.lower_ns", l.lowerNs)
		add("mcu.model_latency_ns", l.costNs)
	}
	loadNs, err := medianOf(3, func() error {
		repo := serve.NewRepository(serve.RepositoryConfig{
			PoolSize: 2, Options: serveOptions, Logger: quiet,
			Batch: serve.BatcherConfig{MaxBatch: 8, MaxDelay: 2 * time.Millisecond},
		})
		defer repo.Close()
		for _, mw := range s.models {
			if _, err := repo.LoadZoo(mw.name, serveOptions); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cold LoadZoo: %w", err)
	}
	set(m, "serve.load_ns", loadNs)
	set(m, "serve.request_bytes", float64(len(req0.body)))

	// ---- the ladder: every boundary from the kernels up, round-robin ----
	var rungs []*rung
	repo := make([]*rung, len(s.models))
	for i, mw := range s.models {
		l := ladders[i]
		repo[i] = &rung{name: "Repository.Infer " + mw.name, call: func() error {
			_, err := srv.Repository().Infer(ctx, mw.name, l.input)
			return err
		}}
		rungs = append(rungs, &l.profile, &l.invoke, repo[i])
	}
	var graphRow, fanOut *rung
	if s.graph {
		g, err := srv.Graphs().Get(cascadeGraph)
		if err != nil {
			return nil, err
		}
		calls := 0 // two per visit; visits cycle through the request's rows
		graphRow = &rung{name: "Graph.Infer row", call: func() error {
			_, err := g.Infer(ctx, req0.rows[calls/2%len(req0.rows)], "")
			calls++
			return err
		}}
		fanOut = &rung{name: "Graph.Infer request", call: func() error {
			errs := make([]error, len(req0.rows))
			var wg sync.WaitGroup
			for i, row := range req0.rows {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = g.Infer(ctx, row, "")
				}()
			}
			wg.Wait()
			return errors.Join(errs...)
		}}
		rungs = append(rungs, graphRow, fanOut)
	}
	handler := srv.Handler()
	viaHandler := &rung{name: "Handler.ServeHTTP", call: func() error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, s.path(), bytes.NewReader(req0.body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body)
		}
		return nil
	}}
	viaHTTP := func(base string) func() error {
		return func() error {
			status, reply, err := post(r.client, base, req0.body, "")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %.200s", status, reply)
			}
			return err
		}
	}
	loopback := &rung{name: "HTTP over loopback", call: viaHTTP(st.replicas[0].URL + s.path())}
	rungs = append(rungs, viaHandler, loopback)
	var viaRouter *rung
	if s.router {
		viaRouter = &rung{name: "HTTP via Router", call: viaHTTP(st.front + s.path())}
		rungs = append(rungs, viaRouter)
	}
	if err := climb(rungs, o.ladderCalls, third); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	for _, rg := range rungs {
		out.record.Printed["rung_p50_ns "+rg.name] = median(rg.ns)
	}
	// A unit costs weight invokes of each model, so the rungs below the
	// server are weighted sums, round by round.
	var kernelNs [4][]float64
	var opsNs, invokeNs, repoNs []float64
	for i, mw := range s.models {
		l := ladders[i]
		for k := range kernelNs {
			kernelNs[k] = plusScaled(kernelNs[k], l.kernelNs[k], mw.weight)
		}
		opsNs = plusScaled(opsNs, l.opsNs, mw.weight)
		invokeNs = plusScaled(invokeNs, l.invoke.ns, mw.weight)
		repoNs = plusScaled(repoNs, repo[i].ns, mw.weight)
	}
	set(m, "kernels.conv_ns", median(kernelNs[0]))
	set(m, "kernels.dwconv_ns", median(kernelNs[1]))
	set(m, "kernels.dense_ns", median(kernelNs[2]))
	set(m, "kernels.other_ns", median(kernelNs[3]))
	if macNs := median(kernelNs[0]) + median(kernelNs[1]) + median(kernelNs[2]); macNs > 0 {
		set(m, "kernels.gmac_per_s", m["kernels.macs_per_invoke"].Value/macNs) // MAC/ns = GMAC/s
	}
	set(m, "tflm.invoke_ns", median(invokeNs))
	set(m, "tflm.dispatch_ns", median(minus(invokeNs, opsNs)))
	set(m, "serve.repo_infer_ns", median(repoNs))
	set(m, "serve.batcher_ns", median(minus(repoNs, invokeNs)))
	inner := repoNs // what the handler's critical path waits for
	if s.graph {
		// Whole cycles over the request's rows carry the workload's exact
		// escalation share, and a mean is what a share weights.
		whole := len(graphRow.ns) / len(req0.rows) * len(req0.rows)
		if whole == 0 {
			whole = len(graphRow.ns)
		}
		set(m, "servegraph.infer_ns", mean(graphRow.ns[:whole]))
		set(m, "servegraph.route_ns", mean(graphRow.ns[:whole])-mean(repoNs[:whole]))
		inner = fanOut.ns
		putNs, err := medianOf(setupStepReps, func() error {
			_, err := servegraph.NewRegistry(serve.GraphBackend(srv.Repository())).Put(r.graphSpec)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("Registry.Put: %w", err)
		}
		set(m, "servegraph.put_ns", putNs)
	}
	set(m, "serve.handler_ns", median(viaHandler.ns))
	set(m, "serve.codec_ns", median(minus(viaHandler.ns, inner)))
	set(m, "serve.loopback_ns", median(minus(loopback.ns, viaHandler.ns)))
	out.record.Printed["ladder_rounds"] = float64(len(loopback.ns))

	// ---- mesh: the hop, the ring walk, a placement round trip ----
	if s.router {
		set(m, "mesh.hop_ns", median(minus(viaRouter.ns, loopback.ns)))
		var urls []string
		for _, rep := range st.replicas {
			urls = append(urls, rep.URL)
		}
		ring := mesh.NewRing(0, urls...)
		ns, err := timeCalls(o.ladderCalls, func() error { ring.Order(s.models[0].name); return nil })
		if err != nil {
			return nil, err
		}
		set(m, "mesh.ring_order_ns", median(ns))
		// Loading a model every replica already holds walks the placement
		// path and changes nothing.
		placeNs, err := medianOf(max(3, o.ladderCalls/10), viaHTTP(st.front+"/v2/repository/models/"+s.models[0].name+"/load"))
		if err != nil {
			return nil, fmt.Errorf("placement: %w", err)
		}
		set(m, "mesh.place_ns", placeNs)
	}
	r.lap("ladder")

	// ---- spans under load: the workload, collection off then on ----
	if _, err := r.load(o.seed-1, min(third, seconds(o.warmup)), ""); err != nil {
		return nil, err
	}
	runtime.GC()
	r.lap("warmup")
	untraced, err := r.load(o.seed, third, "")
	if err != nil {
		return nil, err
	}
	r.lap("untraced")
	before, escBefore, err := stackCounters(st, s.graph)
	if err != nil {
		return nil, err
	}
	gc0, pause0, _ := gcCounters()
	r.tr.start()
	traced, err := r.load(o.seed, third, fmt.Sprintf("%s-%d", s.name, o.seed))
	if err != nil {
		return nil, err
	}
	spans := r.tr.stop()
	gc1, pause1, _ := gcCounters()
	after, escAfter, err := stackCounters(st, s.graph)
	if err != nil {
		return nil, err
	}
	r.lap("traced")

	tu, tt := s.score(untraced, r.reqs), s.score(traced, r.reqs)
	if tu.attempted == 0 || tt.attempted == 0 {
		return nil, fmt.Errorf("a load phase of %v sent no request", third)
	}
	sum := func(family string) float64 {
		total := 0.0
		for _, mw := range s.models {
			key := modelSeries(family, mw.name)
			total += after[key] - before[key]
		}
		return total
	}
	perEvent := func(family string) float64 {
		if n := sum(family + "_count"); n > 0 {
			return sum(family+"_sum") / n * 1e9
		}
		return 0
	}
	set(m, "serve.queue_wait_ns", perEvent("queue_wait_seconds"))
	set(m, "serve.invoke_under_load_ns", perEvent("invoke_seconds"))
	if batches := sum("batches_total"); batches > 0 {
		set(m, "serve.batch_rows_mean", sum("batch_size_sum")/batches)
	}
	set(m, "serve.errors", sum("request_errors_total"))
	if s.graph && escAfter.requests > escBefore.requests {
		set(m, "servegraph.escalation_share",
			float64(escAfter.escalations-escBefore.escalations)/float64(escAfter.requests-escBefore.requests))
	}
	if s.router {
		retries := meshFamily("request_retries_total")
		set(m, "mesh.retries", after[retries]-before[retries])
		serveDur := durationsByTrace(spans, "serve")
		var hops []float64
		for id, d := range durationsByTrace(spans, "mesh") {
			if sd, ok := serveDur[id]; ok {
				hops = append(hops, d-sd)
			}
		}
		set(m, "mesh.hop_under_load_ns", median(hops))
	}
	set(m, "bench.gen_late_p99_ms", quantile(tt.late, 0.99))
	if p50 := median(tu.latencies); p50 > 0 {
		set(m, "bench.trace_overhead_share", median(tt.latencies)/p50-1)
	}
	set(m, "bench.gc_cycles", float64(gc1-gc0))
	set(m, "bench.gc_pause_total_ms", ms(pause1-pause0))

	path, err := writeTrace(o.outDir, s.name, o.seed, spans)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	r.lap("report")
	out.result = result{
		Correct: tu.failed+tt.failed == 0, Attempted: tu.attempted + tt.attempted,
		Failed: tu.failed + tt.failed, Metrics: m,
	}
	s.fillRecord(&out.record, tt, traced)
	out.record.TraceFile = path
	out.record.Printed["untraced_p50_ms"] = median(tu.latencies)
	out.record.Printed["spans"] = float64(len(spans))
	return out, nil
}

// cascadeCounts are the cascade node's own counters.
type cascadeCounts struct{ requests, escalations uint64 }

// stackCounters sums every sample of every /metrics page in the stack
// (replicas and router; their families do not overlap) and, for graph
// workloads, reads the cascade node's counters.
func stackCounters(st *stack, graphs bool) (map[string]float64, cascadeCounts, error) {
	total := map[string]float64{}
	var cc cascadeCounts
	handlers := make([]http.Handler, 0, len(st.servers)+1)
	for _, srv := range st.servers {
		handlers = append(handlers, srv.Handler())
		if !graphs {
			continue
		}
		g, err := srv.Graphs().Get(cascadeGraph)
		if err != nil {
			return nil, cc, err
		}
		for _, n := range g.Stats().Nodes {
			if n.Kind == servegraph.KindCascade {
				cc.requests += n.Requests
				cc.escalations += n.Escalations
			}
		}
	}
	if st.router != nil {
		handlers = append(handlers, st.router.Handler())
	}
	for _, h := range handlers {
		samples, err := scrape(h)
		if err != nil {
			return nil, cc, err
		}
		for k, v := range samples {
			total[k] += v
		}
	}
	return total, cc, nil
}
