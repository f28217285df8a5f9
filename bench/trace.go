package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed crossing of a layer boundary. Spans of one request
// share TraceID; Parent names the layer whose span caused this one.
type span struct {
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	// StartNs and EndNs are nanoseconds since the traced phase began.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer collects spans in memory from the harness's own middleware,
// wrapped around the calls into each layer. It records only while on, so
// one stack serves both the untraced and the traced phase of a traced
// run. A nil tracer wraps nothing.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span // guarded by tracer.mu
}

func (t *tracer) add(traceID, name, parent string, start, end time.Time) {
	s := span{TraceID: traceID, Name: name, Parent: parent,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap times every request that carries a trace id through h.
func (t *tracer) wrap(name, parent string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(traceHeader)
		if id == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(id, name, parent, start, time.Now())
	})
}

// start begins recording; stop ends it and returns what was recorded.
func (t *tracer) start() {
	t.epoch = time.Now()
	t.on.Store(true)
}

func (t *tracer) stop() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// durationsByTrace returns each trace's span duration for one layer.
func durationsByTrace(spans []span, name string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.TraceID] = float64(s.EndNs - s.StartNs)
		}
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Host     hostInfo `json:"host"`
	Spans    []span   `json:"spans"`
}

// writeTrace writes the run's spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Host: hostFingerprint(), Spans: spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
