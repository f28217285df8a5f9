package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 512, 1024, 1500, 4096, 1e6, 1e7, 5e8, 1e9, 8e9, 1 << 40} {
		idx := bucketIndex(ns)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", ns, idx)
		}
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", ns, idx, prev)
		}
		prev = idx
		if idx < numBuckets-1 && ns >= bucketUpperNs(idx) {
			t.Fatalf("ns %d >= upper bound %d of its own bucket %d", ns, bucketUpperNs(idx), idx)
		}
	}
}

func TestBucketBoundsIncreasing(t *testing.T) {
	for i := 1; i < numBuckets; i++ {
		if bucketUpperNs(i) <= bucketUpperNs(i-1) {
			t.Fatalf("bucket bounds not increasing at %d: %d <= %d", i, bucketUpperNs(i), bucketUpperNs(i-1))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	// Log-bucketed: quantiles are approximate; sub-buckets bound the
	// relative error at ~25%.
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Millisecond}, {0.95, 950 * time.Millisecond}, {0.99, 990 * time.Millisecond}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		lo := time.Duration(float64(c.want) * 0.7)
		hi := time.Duration(float64(c.want) * 1.3)
		if got < lo || got > hi {
			t.Errorf("Quantile(%v) = %v, want within [%v, %v]", c.q, got, lo, hi)
		}
	}
	if want := (500500 * time.Millisecond).Nanoseconds(); s.SumNs != want {
		t.Errorf("SumNs = %d, want %d", s.SumNs, want)
	}
}

func TestHistogramEmptyAndExtremes(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.SumNs != 0 {
		t.Fatalf("empty histogram should report zeros, got q99=%v sum=%v", s.Quantile(0.99), s.SumNs)
	}
	h.Observe(-time.Second)          // clamps to 0
	h.Observe(0)                     // below min
	h.Observe(100 * time.Hour)       // overflow bucket
	h.Observe(500 * time.Nanosecond) // below min
	s = h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Buckets[0] != 3 || s.Buckets[numBuckets-1] != 1 {
		t.Fatalf("extreme observations misplaced: first=%d overflow=%d", s.Buckets[0], s.Buckets[numBuckets-1])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestWritePrometheusCumulative(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(2 * time.Second)
	var sb strings.Builder
	WriteHistogramHead(&sb, "x_seconds", "test family.")
	h.Snapshot().WritePrometheus(&sb, "x_seconds", `model="m"`)
	out := sb.String()

	if !strings.Contains(out, "# HELP x_seconds test family.") || !strings.Contains(out, "# TYPE x_seconds histogram") {
		t.Fatalf("missing HELP/TYPE header:\n%s", out)
	}
	if !strings.Contains(out, `x_seconds_bucket{model="m",le="+Inf"} 3`) {
		t.Fatalf("missing +Inf bucket with total count:\n%s", out)
	}
	if !strings.Contains(out, `x_seconds_count{model="m"} 3`) {
		t.Fatalf("missing _count:\n%s", out)
	}
	// Bucket counts must be cumulative (non-decreasing top to bottom).
	last := int64(-1)
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "x_seconds_bucket") {
			continue
		}
		n++
		var v int64
		if _, err := fmtSscanLast(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q (prev %d)", line, last)
		}
		last = v
	}
	if n < 10 {
		t.Fatalf("too few bucket lines: %d", n)
	}
	if last != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", last)
	}
}

// fmtSscanLast parses the final whitespace-separated token of a sample
// line as an integer.
func fmtSscanLast(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*v, err = parseInt(line[i+1:])
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func parseInt(s string) (int64, error) {
	var v int64
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errBadInt
		}
		v = v*10 + int64(r-'0')
	}
	return v, nil
}

var errBadInt = &parseErr{}

type parseErr struct{}

func (*parseErr) Error() string { return "bad int" }

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	if len(tr.ID()) != 16 {
		t.Fatalf("trace ID %q, want 16 hex chars", tr.ID())
	}
	root := tr.Start("request", nil)
	child := tr.Start("invoke", root)
	child.SetAttr("model", "m")
	child.End()
	tr.Add("queue", root, time.Now().Add(-time.Millisecond), time.Millisecond, map[string]string{"batch": "4"})
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.TraceID != tr.ID() {
			t.Errorf("span %q trace ID %q != %q", s.Name, s.TraceID, tr.ID())
		}
	}
	if byName["request"].Parent != 0 {
		t.Errorf("root span has parent %d", byName["request"].Parent)
	}
	if byName["invoke"].Parent != byName["request"].ID {
		t.Errorf("invoke parent = %d, want %d", byName["invoke"].Parent, byName["request"].ID)
	}
	if byName["queue"].Parent != byName["request"].ID {
		t.Errorf("queue parent = %d, want %d", byName["queue"].Parent, byName["request"].ID)
	}
	if byName["invoke"].Attrs["model"] != "m" {
		t.Errorf("invoke attrs = %v", byName["invoke"].Attrs)
	}
	if byName["queue"].DurNs != time.Millisecond.Nanoseconds() {
		t.Errorf("queue dur = %d", byName["queue"].DurNs)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	h := tr.Start("x", nil)
	h.SetAttr("k", "v")
	h.End()
	tr.Add("y", nil, time.Now(), 0, nil)
	if tr.ID() != "" || tr.Spans() != nil {
		t.Fatal("nil trace should be inert")
	}
	var nh *SpanHandle
	nh.SetAttr("k", "v")
	nh.End()
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < maxSpans+10; i++ {
		tr.Start("s", nil).End()
	}
	if n := len(tr.Spans()); n != maxSpans {
		t.Fatalf("stored %d spans, want cap %d", n, maxSpans)
	}
}

func TestTraceDoubleEnd(t *testing.T) {
	tr := NewTrace()
	h := tr.Start("x", nil)
	h.End()
	h.End()
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("double End recorded %d spans", n)
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil || SpanFrom(ctx) != nil || TraceIDFrom(ctx) != "" {
		t.Fatal("empty context should yield nils")
	}
	ctx = ContextWithTraceID(ctx, "abc")
	if TraceIDFrom(ctx) != "abc" {
		t.Fatalf("TraceIDFrom = %q", TraceIDFrom(ctx))
	}
	tr := NewTrace()
	ctx = ContextWithTrace(ctx, tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	if TraceIDFrom(ctx) != tr.ID() {
		t.Fatalf("TraceIDFrom = %q, want trace's own ID %q", TraceIDFrom(ctx), tr.ID())
	}
	h := tr.Start("x", nil)
	ctx = ContextWithSpan(ctx, h)
	if SpanFrom(ctx) != h {
		t.Fatal("SpanFrom lost the span")
	}
}

func TestQuantileInterpolationWithinBucket(t *testing.T) {
	// All mass in one bucket: quantiles must stay inside that bucket's
	// bounds and increase with q.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	s := h.Snapshot()
	idx := bucketIndex((10 * time.Millisecond).Nanoseconds())
	lower := bucketUpperNs(idx - 1)
	upper := bucketUpperNs(idx)
	q1, q2 := s.Quantile(0.1), s.Quantile(0.9)
	if q1.Nanoseconds() < lower || q2.Nanoseconds() > upper {
		t.Fatalf("quantiles [%v, %v] escaped bucket [%d, %d]", q1, q2, lower, upper)
	}
	if q2 < q1 {
		t.Fatalf("quantiles not monotone: q90 %v < q10 %v", q2, q1)
	}
	if math.Abs(float64(s.Quantile(1.0).Nanoseconds())-float64(upper)) > 1 {
		t.Fatalf("q100 = %v, want bucket upper %d", s.Quantile(1.0), upper)
	}
}
