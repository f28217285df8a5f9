package serve

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"micronets/internal/graph"
	"micronets/internal/obs"
	"micronets/internal/tflm"
)

// lowerZoo is the one way serve tests turn a zoo name into a lowered
// model: the same ModelOptions.Lower the repository loads through.
func lowerZoo(t *testing.T, name string, opts ModelOptions) *graph.Model {
	t.Helper()
	m, err := opts.Lower(testSpec(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newTestVersion builds a bare pooled version (no repository) for
// driving version.infer directly.
func newTestVersion(t *testing.T, poolSize int) *version {
	t.Helper()
	m := lowerZoo(t, "MicroNet-KWS-S", ModelOptions{Seed: 42, AppendSoftmax: true})
	prep, err := tflm.Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newPool(prep, poolSize)
	if err != nil {
		t.Fatal(err)
	}
	return &version{name: m.Name, model: m, pool: pool, spanAttrs: map[string]string{"model": m.Name}}
}

func validInput(v *version) []int8 {
	return make([]int8, v.model.Tensors[v.model.Input].Elems())
}

func outputBuf(v *version) []int8 {
	return make([]int8, v.model.Tensors[v.model.Output].Elems())
}

// TestBatcherRejectsWrongLengthWithoutPoisoningBatch: a malformed row
// fails fast and a concurrent valid one still succeeds.
func TestBatcherRejectsWrongLengthWithoutPoisoningBatch(t *testing.T) {
	v := newTestVersion(t, 1)

	var wg sync.WaitGroup
	var goodErr, badErr error
	wg.Add(2)
	go func() { defer wg.Done(); goodErr = v.infer(context.Background(), validInput(v), outputBuf(v)) }()
	go func() { defer wg.Done(); badErr = v.infer(context.Background(), make([]int8, 3), outputBuf(v)) }()
	wg.Wait()
	if goodErr != nil {
		t.Fatalf("valid row failed alongside malformed one: %v", goodErr)
	}
	if badErr == nil || !strings.Contains(badErr.Error(), "3 elements") {
		t.Fatalf("malformed row: err = %v", badErr)
	}
	if got := v.stats.errors.Load(); got != 1 {
		t.Fatalf("errors = %d, want 1 (the malformed row)", got)
	}
}

// TestBatcherParallelFlushes: with a pool of 2, concurrent rows run on
// both interpreters and every row completes exactly once — a lost or
// doubled reply would fail the counts, and an interpreter never returned
// to the pool would hang the test. Every row is traced, so the version's
// one shared span-attribute map is read from all of them at once.
func TestBatcherParallelFlushes(t *testing.T) {
	v := newTestVersion(t, 2)

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	traces := make([]*obs.Trace, n)
	for i := 0; i < n; i++ {
		traces[i] = obs.NewTrace()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := obs.ContextWithTrace(context.Background(), traces[i])
			errs[i] = v.infer(ctx, validInput(v), outputBuf(v))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		spans := traces[i].Spans()
		if len(spans) != 2 || spans[0].Name != "queue" || spans[1].Name != "invoke" ||
			spans[0].Attrs["model"] != v.name || spans[1].Attrs["model"] != v.name {
			t.Fatalf("row %d spans = %+v, want queue then invoke, both with model %s", i, spans, v.name)
		}
	}
	if got := v.stats.requests.Load(); got != n {
		t.Fatalf("requests = %d, want %d", got, n)
	}
	if got := len(v.pool.ch); got != 2 {
		t.Fatalf("%d interpreters back in the pool, want 2", got)
	}
}

// TestBatcherCanceledCountedSeparately: a caller walking away while it
// waits for an interpreter is a cancellation, not a model error — the
// errors counter must stay untouched so the /metrics error rate keeps
// meaning "inference failed".
func TestBatcherCanceledCountedSeparately(t *testing.T) {
	v := newTestVersion(t, 1)
	// Check the only interpreter out so the row has to wait.
	ip, err := v.pool.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer v.pool.Put(ip)

	// With no interpreter free the row cannot run, so the outcome is the
	// same whether the cancel lands before or during its wait.
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- v.infer(ctx, validInput(v), outputBuf(v)) }()
	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("abandoned row returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("infer did not observe cancellation")
	}
	if got := v.stats.canceled.Load(); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
	if got := v.stats.errors.Load(); got != 0 {
		t.Fatalf("errors = %d after a pure cancellation, want 0", got)
	}
}

// TestRowInferAllocBound pins the steady-state allocation cost of one
// row on a pooled interpreter: the caller owns the input and output
// buffers, so the wait, copies, Invoke and counters allocate nothing.
func TestRowInferAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	v := newTestVersion(t, 1)

	in, out := validInput(v), outputBuf(v)
	ctx := context.Background()
	if err := v.infer(ctx, in, out); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := v.infer(ctx, in, out); err != nil {
			t.Error(err)
		}
	})
	t.Logf("infer: %.2f allocs/op", avg)
	const maxAllocs = 1
	if avg > maxAllocs {
		t.Fatalf("infer allocates %.1f objects/op, want <= %d", avg, maxAllocs)
	}
}

func TestBatcherSubmitCancelledContext(t *testing.T) {
	v := newTestVersion(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The pool wait may pick either the free interpreter or the ended
	// context; both are valid, but a cancelled context must never hang.
	done := make(chan struct{})
	go func() {
		_ = v.infer(ctx, validInput(v), outputBuf(v))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("infer hung on cancelled context")
	}
}

// TestIdleQueueWaitUnderOneMillisecond: a lone first request on an idle
// pool starts at once — its recorded queue wait is the hand-off of a free
// interpreter, not a gather window.
func TestIdleQueueWaitUnderOneMillisecond(t *testing.T) {
	r := NewRepository(RepositoryConfig{PoolSize: 1, Logger: discardLogger()})
	defer r.Close()
	st, err := r.LoadZoo("MicroNet-KWS-S", ModelOptions{Seed: 42, AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.acquire(st.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer v.release()
	if _, err := r.Infer(context.Background(), st.Name, validInput(v)); err != nil {
		t.Fatal(err)
	}
	qw := v.stats.queueWait.Snapshot()
	if qw.Count != 1 {
		t.Fatalf("queue wait observed %d times, want 1", qw.Count)
	}
	if wait := time.Duration(qw.SumNs); wait >= time.Millisecond {
		t.Fatalf("lone request on an idle pool waited %v, want < 1ms", wait)
	}
}
