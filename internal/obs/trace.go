package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// maxSpans bounds a single trace; spans past the cap are dropped, so a
// pathological graph fan-out cannot balloon the span JSON returned to a
// client.
const maxSpans = 512

// Span is one timed region of a traced request, serialized into the
// X-Micronets-Trace response header / body JSON.
type Span struct {
	TraceID     string            `json:"trace_id"`
	ID          int               `json:"id"`
	Parent      int               `json:"parent"` // 0 = root has no parent
	Name        string            `json:"name"`
	StartUnixNs int64             `json:"start_unix_ns"`
	DurNs       int64             `json:"dur_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// Trace collects the spans of one request. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so instrumented
// code paths never need to check whether tracing is enabled.
type Trace struct {
	id     string
	mu     sync.Mutex
	spans  []Span // guarded by Trace.mu
	nextID int    // guarded by Trace.mu
}

// NewTrace creates a trace with a fresh random ID.
func NewTrace() *Trace { return &Trace{id: NewTraceID()} }

// NewTraceWithID creates a trace with a caller-supplied ID (e.g. one
// already stamped on the request by the logging middleware).
func NewTraceWithID(id string) *Trace { return &Trace{id: id} }

// NewTraceID returns a 16-hex-char random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; a fixed ID
		// keeps requests flowing and is obvious in logs.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace ID ("" for nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a child span under parent (or a root span when parent is
// nil). Returns nil on a nil trace.
func (t *Trace) Start(name string, parent *SpanHandle) *SpanHandle {
	if t == nil {
		return nil
	}
	h := &SpanHandle{t: t, name: name, start: time.Now()}
	if parent != nil {
		h.parent = parent.id
	}
	t.mu.Lock()
	t.nextID++
	h.id = t.nextID
	t.mu.Unlock()
	return h
}

// Add records a span post hoc from an explicit start time and duration
// — for code (like the serve row path) that learns timings after the
// fact. attrs is stored, not copied, so one read-only map may be shared
// by many spans; it must not be written afterwards.
//
//microvet:hotpath-stop opt-in request tracing; the steady-state serve path runs with a nil trace and never reaches this append
func (t *Trace) Add(name string, parent *SpanHandle, start time.Time, dur time.Duration, attrs map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	if len(t.spans) >= maxSpans {
		return
	}
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	t.spans = append(t.spans, Span{
		TraceID:     t.id,
		ID:          t.nextID,
		Parent:      pid,
		Name:        name,
		StartUnixNs: start.UnixNano(),
		DurNs:       dur.Nanoseconds(),
		Attrs:       attrs,
	})
}

// Spans returns the finished spans recorded so far, oldest first.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// SpanHandle is an open span. End finishes it; SetAttr annotates it.
// All methods are nil-safe.
type SpanHandle struct {
	t      *Trace
	id     int
	parent int
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]string // guarded by SpanHandle.mu
	done  bool              // guarded by SpanHandle.mu
}

// SetAttr attaches a key/value annotation. Calls after End are ignored.
func (h *SpanHandle) SetAttr(k, v string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	if h.attrs == nil {
		h.attrs = make(map[string]string, 4)
	}
	h.attrs[k] = v
}

// End finishes the span and records it into the trace. Repeated Ends
// are ignored.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	dur := time.Since(h.start)
	h.mu.Lock()
	if h.done {
		h.mu.Unlock()
		return
	}
	h.done = true
	attrs := h.attrs
	h.mu.Unlock()

	t := h.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return
	}
	t.spans = append(t.spans, Span{
		TraceID:     t.id,
		ID:          h.id,
		Parent:      h.parent,
		Name:        h.name,
		StartUnixNs: h.start.UnixNano(),
		DurNs:       dur.Nanoseconds(),
		Attrs:       attrs,
	})
}

type traceKey struct{}
type spanKey struct{}
type traceIDKey struct{}

// ContextWithTrace attaches a trace to the context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil — and nil flows safely
// into every Trace method.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// ContextWithSpan attaches the current span, so downstream layers can
// parent their children correctly.
func ContextWithSpan(ctx context.Context, h *SpanHandle) context.Context {
	return context.WithValue(ctx, spanKey{}, h)
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *SpanHandle {
	h, _ := ctx.Value(spanKey{}).(*SpanHandle)
	return h
}

// ContextWithTraceID attaches a bare trace ID — every request gets one
// for log correlation even when full span tracing is off.
func ContextWithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom returns the request's trace ID: the full trace's ID if
// one is attached, else the bare ID, else "".
func TraceIDFrom(ctx context.Context) string {
	if t := TraceFrom(ctx); t != nil {
		return t.ID()
	}
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}
