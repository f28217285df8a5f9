package serve

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"micronets/internal/graph"
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

// newTestVersion builds a bare pooled version (no repository, no
// batcher) for driving a Batcher directly.
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
	return &version{name: m.Name, model: m, pool: pool}
}

func validInput(v *version) []int8 {
	return make([]int8, v.model.Tensors[v.model.Input].Elems())
}

// TestBatcherCoalescesConcurrentRequests is the acceptance-criterion load
// test: N concurrent submits must land in strictly fewer InvokeBatch
// calls, with at least one batch of ≥ 2.
func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	v := newTestVersion(t, 1)
	b := newBatcher(v, BatcherConfig{MaxBatch: 8, MaxDelay: 25 * time.Millisecond})
	defer b.Close()

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Submit(context.Background(), validInput(v))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := &v.stats
	if got := st.requests.Load(); got != n {
		t.Fatalf("requests = %d, want %d", got, n)
	}
	if got := st.batchMax.Load(); got < 2 {
		t.Fatalf("micro-batcher never coalesced: max batch %d, want >= 2", got)
	}
	if got := st.batches.Load(); got >= n {
		t.Fatalf("batches = %d for %d requests: no coalescing", got, n)
	}
	t.Logf("coalesced %d requests into %d batches (max %d)", st.requests.Load(), st.batches.Load(), st.batchMax.Load())
}

// TestBatcherAdaptiveWindow: singleton traffic shrinks the gather window;
// a full batch restores it to MaxDelay.
func TestBatcherAdaptiveWindow(t *testing.T) {
	v := newTestVersion(t, 2)
	const maxDelay = 8 * time.Millisecond
	b := newBatcher(v, BatcherConfig{MaxBatch: 4, MaxDelay: maxDelay})
	defer b.Close()

	for i := 0; i < 4; i++ {
		if _, err := b.Submit(context.Background(), validInput(v)); err != nil {
			t.Fatal(err)
		}
	}
	if w := b.Window(); w >= maxDelay {
		t.Fatalf("window after sparse traffic = %v, want < %v", w, maxDelay)
	}
	if w := b.Window(); w < maxDelay/8 {
		t.Fatalf("window shrank below floor: %v < %v", w, maxDelay/8)
	}

	// Saturate: a full batch must reset the window to MaxDelay.
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = b.Submit(context.Background(), validInput(v))
		}()
	}
	wg.Wait()
	if v.stats.batchMax.Load() >= 4 {
		if w := b.Window(); w != maxDelay {
			t.Fatalf("window after full batch = %v, want %v", w, maxDelay)
		}
	}
}

// TestBatcherRejectsWrongLengthWithoutPoisoningBatch: a malformed request
// fails fast and a concurrent valid one still succeeds.
func TestBatcherRejectsWrongLengthWithoutPoisoningBatch(t *testing.T) {
	v := newTestVersion(t, 1)
	b := newBatcher(v, BatcherConfig{MaxBatch: 8, MaxDelay: 10 * time.Millisecond})
	defer b.Close()

	var wg sync.WaitGroup
	var goodErr, badErr error
	wg.Add(2)
	go func() { defer wg.Done(); _, goodErr = b.Submit(context.Background(), validInput(v)) }()
	go func() { defer wg.Done(); _, badErr = b.Submit(context.Background(), make([]int8, 3)) }()
	wg.Wait()
	if goodErr != nil {
		t.Fatalf("valid request failed alongside malformed one: %v", goodErr)
	}
	if badErr == nil || !strings.Contains(badErr.Error(), "3 elements") {
		t.Fatalf("malformed request: err = %v", badErr)
	}
}

// TestBatcherParallelFlushes: with a pool of 2 the collector dispatches
// batches concurrently instead of serializing on one interpreter; every
// request still completes exactly once (Close waits for in-flight
// flushes, so lost replies would hang or fail this test).
func TestBatcherParallelFlushes(t *testing.T) {
	v := newTestVersion(t, 2)
	b := newBatcher(v, BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond})

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Submit(context.Background(), validInput(v))
		}(i)
	}
	wg.Wait()
	b.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := v.stats.requests.Load(); got != n {
		t.Fatalf("requests = %d, want %d", got, n)
	}
}

func TestBatcherSubmitAfterClose(t *testing.T) {
	v := newTestVersion(t, 1)
	b := newBatcher(v, BatcherConfig{})
	b.Close()
	b.Close() // idempotent
	if _, err := b.Submit(context.Background(), validInput(v)); err != ErrDraining {
		t.Fatalf("submit after close: err = %v, want ErrDraining", err)
	}
}

// TestBatcherCanceledCountedSeparately: a caller abandoning its request
// mid-gather is a cancellation, not a model error — the errors counter
// must stay untouched so the /metrics error rate keeps meaning "inference
// failed".
func TestBatcherCanceledCountedSeparately(t *testing.T) {
	v := newTestVersion(t, 1)
	// MaxBatch 8 with a long window: a lone request sits in the gather
	// phase long enough for the caller to walk away.
	b := newBatcher(v, BatcherConfig{MaxBatch: 8, MaxDelay: time.Second})
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, validInput(v))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request enter the gather window
	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("abandoned Submit returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit did not observe cancellation")
	}
	if got := v.stats.canceled.Load(); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
	if got := v.stats.errors.Load(); got != 0 {
		t.Fatalf("errors = %d after a pure cancellation, want 0", got)
	}
}

// TestBatcherSubmitAllocBound pins the steady-state allocation cost of the
// whole Submit→response round trip to a fixed object count — independent
// of tensor sizes, because the flush path writes into each request's
// pre-allocated buffer instead of allocating outputs per row.
func TestBatcherSubmitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	v := newTestVersion(t, 1)
	b := newBatcher(v, BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond})
	defer b.Close()

	in := validInput(v)
	ctx := context.Background()
	if _, err := b.Submit(ctx, in); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := b.Submit(ctx, in); err != nil {
			t.Error(err)
		}
	})
	// The budget covers the request struct, its response buffer and
	// channel, plus the collector's batch slice, the flush goroutine and
	// its two batch-wide slices. Anything scaling with tensor elements
	// or allocating per row would blow well past it.
	const maxAllocs = 16
	if avg > maxAllocs {
		t.Fatalf("Submit round trip allocates %.1f objects/op, want <= %d", avg, maxAllocs)
	}
}

func TestBatcherSubmitCancelledContext(t *testing.T) {
	v := newTestVersion(t, 1)
	b := newBatcher(v, BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Either the send or the wait observes cancellation; both are valid,
	// but a non-nil result with a cancelled context must never hang.
	done := make(chan struct{})
	go func() {
		_, _ = b.Submit(ctx, validInput(v))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit hung on cancelled context")
	}
}
