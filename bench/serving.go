package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"micronets/internal/servegraph"
)

// modelShare is one model a workload invokes, with how many invokes of
// it one unit (request or row) costs on average.
type modelShare struct {
	name   string
	weight float64
}

// servingSpec fixes the shape of one serving workload.
type servingSpec struct {
	name     string
	models   []modelShare
	replicas int
	router   bool
	graph    bool    // requests go to /v2/graphs/{cascadeGraph}/infer
	rate     float64 // open-loop requests per second; 0 means closed loop
	clients  int     // closed-loop clients
	limit    time.Duration
	// unitsPerRequest converts requests to the workload's unit.
	unitsPerRequest int
}

const cascadeGraph = "bench-cascade"

var (
	kwsOpen = servingSpec{
		name: "kws_open", models: []modelShare{{"MicroNet-KWS-S", 1}},
		replicas: 2, router: true, rate: 60, limit: 25 * time.Millisecond, unitsPerRequest: 1,
	}
	vwwClosed = servingSpec{
		name: "vww_closed", models: []modelShare{{"MicroNet-VWW-1", 1}},
		replicas: 1, clients: 2, limit: 200 * time.Millisecond, unitsPerRequest: 1,
	}
	cascadeRows = servingSpec{
		name:     "cascade_rows",
		models:   []modelShare{{"DSCNN-S", 1}, {"MicroNet-KWS-L", float64(escPerBody) / rowsPerBody}},
		replicas: 1, graph: true, clients: 1, limit: 200 * time.Millisecond, unitsPerRequest: rowsPerBody,
	}
)

func (s servingSpec) path() string {
	if s.graph {
		return "/v2/graphs/" + cascadeGraph + "/infer"
	}
	return "/v2/models/" + s.models[0].name + "/infer"
}

// requests generates the workload's seeded bodies and reference answers.
func (s servingSpec) requests(o options) ([]request, *servegraph.Spec, error) {
	rng := rand.New(rand.NewSource(o.seed))
	if s.graph {
		return cascadeRequests(s.models[0].name, s.models[1].name, o.bodies, o.probeRows, rng)
	}
	reqs, err := modelRequests(s.models[0].name, o.bodies, rng)
	return reqs, nil, err
}

// sample is one request as the generator saw it.
type sample struct {
	req     int           // index into the request set
	latency time.Duration // from the due time (open loop) or the send (closed loop)
	late    time.Duration // open loop: how long after its due time it was sent
	doneAt  time.Duration // since the phase began
	cpu     time.Duration // process CPU time when the reply was read
	status  int
	reply   []byte
	err     error
}

// phase is one stretch of generated load.
type phase struct {
	samples []sample
	planned time.Duration // how long load was generated for
	elapsed time.Duration // until the last reply
	cpu0    time.Duration // process CPU time when it began
}

// generate drives the workload's traffic at url for d and returns every
// request sent. Replies are kept and checked after the phase, outside
// the timed region. idPrefix, when set, stamps each request with a trace
// id and records a client span for it.
func (s servingSpec) generate(client *http.Client, url string, reqs []request, seed int64, d time.Duration, idPrefix string, tr *tracer) (phase, error) {
	var mu sync.Mutex
	var samples []sample
	var start time.Time
	send := func(i int, pick int, due time.Time) {
		id := ""
		if idPrefix != "" {
			id = fmt.Sprintf("%s-%06d", idPrefix, i)
		}
		sent := time.Now()
		if due.IsZero() {
			due = sent
		}
		status, reply, err := post(client, url, reqs[pick].body, id)
		done := time.Now()
		cpu, cpuErr := cpuTime()
		if err == nil {
			err = cpuErr
		}
		if id != "" {
			tr.add(id, "client", "", due, done)
		}
		mu.Lock()
		samples = append(samples, sample{req: pick, latency: done.Sub(due), late: sent.Sub(due),
			doneAt: done.Sub(start), cpu: cpu, status: status, reply: reply, err: err})
		mu.Unlock()
	}

	cpu0, err := cpuTime()
	if err != nil {
		return phase{}, err
	}
	start = time.Now()
	var wg sync.WaitGroup
	if s.rate > 0 {
		// Open loop: request i is due at start + i/rate whatever happened
		// to earlier ones, and is timed from that instant.
		rng := rand.New(rand.NewSource(seed))
		n := int(d.Seconds() * s.rate)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
			time.Sleep(time.Until(due))
			wg.Add(1)
			go func(i, pick int) {
				defer wg.Done()
				send(i, pick, due)
			}(i, rng.Intn(len(reqs)))
		}
	} else {
		// Closed loop: each client sends its next request when the last
		// one is answered, until the deadline.
		var next atomic.Int64
		for c := 0; c < s.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(c)))
				for time.Since(start) < d {
					send(int(next.Add(1)-1), rng.Intn(len(reqs)), time.Time{})
				}
			}(c)
		}
	}
	wg.Wait()
	return phase{samples: samples, planned: d, elapsed: time.Since(start), cpu0: cpu0}, nil
}

// tally is a phase scored against the oracle and the latency limit.
type tally struct {
	events    []event
	latencies []float64 // ms, every request that was answered correctly
	late      []float64 // ms
	attempted int       // units
	failed    int       // units: transport error, non-200, or wrong answer
	good      int       // units answered correctly within the limit
	firstErr  error
}

func (s servingSpec) score(p phase, reqs []request) tally {
	var t tally
	for _, sm := range p.samples {
		t.attempted += s.unitsPerRequest
		ev := event{doneAt: sm.doneAt, cpu: sm.cpu, latency: ms(sm.latency), units: s.unitsPerRequest}
		err := sm.err
		if err == nil && sm.status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", sm.status, sm.reply)
		}
		if err == nil {
			err = reqs[sm.req].check(sm.reply, s.graph)
		}
		if err != nil {
			t.failed += s.unitsPerRequest
			if t.firstErr == nil {
				t.firstErr = err
			}
			t.events = append(t.events, ev)
			continue
		}
		ev.ok = true
		t.latencies = append(t.latencies, ev.latency)
		t.late = append(t.late, ms(sm.late))
		if sm.latency <= s.limit {
			ev.good = s.unitsPerRequest
			t.good += s.unitsPerRequest
		}
		t.events = append(t.events, ev)
	}
	return t
}

// maxGenLateMs is the generator lateness above which an open-loop run is
// marked invalid: the schedule, not the system, shaped its latencies.
const maxGenLateMs = 5

// servingRun is one serving workload being measured: its inputs, the
// stack built for it, and the generator's client.
type servingRun struct {
	servingSpec
	o         options
	reqs      []request
	graphSpec *servegraph.Spec
	st        *stack
	tr        *tracer // nil on an untraced run
	client    *http.Client
	url       string
	out       *outcome
	lap       func(phase string) // records the time since the last lap under a name
}

// run measures one serving workload.
func (s servingSpec) run(o options, trace bool) (*outcome, error) {
	dur := map[string]float64{}
	mark := time.Now()
	r := &servingRun{servingSpec: s, o: o,
		out: &outcome{record: record{Durations: dur, Printed: map[string]float64{}, Valid: true}},
		lap: func(phase string) {
			dur[phase] = time.Since(mark).Seconds()
			mark = time.Now()
		}}

	var err error
	if r.reqs, r.graphSpec, err = s.requests(o); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	r.lap("inputs_and_oracle")

	// Set-up: cold-build the whole stack repeatedly and report the median;
	// the last build is the one served. A traced run builds once, with the
	// span middleware in place.
	reps := o.setupReps
	if trace {
		r.tr, reps = &tracer{}, 1
	}
	var builds []float64
	for i := 0; i < reps; i++ {
		if r.st != nil {
			r.st.close()
			runtime.GC() // outside the timed build, so garbage does not pile into peak RSS
		}
		t0 := time.Now()
		if r.st, err = buildStack(s, r.graphSpec, r.tr); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	defer r.st.close()
	r.lap("setup")

	client, transport := newClient()
	defer transport.CloseIdleConnections()
	r.client, r.url = client, r.st.front+s.path()
	if trace {
		return r.traced()
	}

	if _, err := r.load(o.seed-1, seconds(o.warmup), ""); err != nil {
		return nil, err
	}
	runtime.GC()
	r.lap("warmup")
	p, err := r.load(o.seed, seconds(o.seconds), "")
	if err != nil {
		return nil, err
	}
	r.lap("timed")
	t := s.score(p, r.reqs)
	r.lap("verify")
	if t.attempted == 0 {
		return nil, fmt.Errorf("no request was sent in %v", p.elapsed)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	m := bestWindowStats(t.events, p.cpu0, p.planned).metrics(rss, median(builds), r.out.record.Printed)
	r.out.result = result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	s.fillRecord(&r.out.record, t, p)
	r.out.record.Printed["setup_min_s"] = quantile(builds, 0)
	r.out.record.Printed["setup_max_s"] = quantile(builds, 1)
	return r.out, nil
}

// load generates the workload's traffic against the run's stack.
func (r *servingRun) load(seed int64, d time.Duration, idPrefix string) (phase, error) {
	return r.generate(r.client, r.url, r.reqs, seed, d, idPrefix, r.tr)
}

// fillRecord adds the printed-only statistics of a scored phase.
func (s servingSpec) fillRecord(r *record, t tally, p phase) {
	r.Succeeded, r.WithinSLO, r.Samples = t.attempted-t.failed, t.good, len(t.latencies)
	printWholeRun(r.Printed, t.latencies, t.good, p.elapsed)
	r.Printed["limit_ms"] = ms(s.limit)
	if s.rate > 0 {
		late := quantile(t.late, 0.99)
		r.Printed["gen_late_p99_ms"] = late
		if late > maxGenLateMs {
			r.Valid = false
			r.Notes = append(r.Notes, fmt.Sprintf("generator ran %.2f ms late at p99 (limit %d ms): latencies reflect the schedule, not the system", late, maxGenLateMs))
		}
	}
	if t.firstErr != nil {
		r.Notes = append(r.Notes, "first failure: "+t.firstErr.Error())
	}
}
