package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"micronets/internal/obs"
)

// ErrDraining is returned by Submit once the batcher has been closed —
// the server is shutting down and no longer accepts work.
var ErrDraining = errors.New("serve: batcher draining")

// BatcherConfig bounds the micro-batching window.
type BatcherConfig struct {
	// MaxBatch is the most requests coalesced into one InvokeBatch call
	// (default 8).
	MaxBatch int
	// MaxDelay is the longest a lone request waits for company before the
	// window closes (default 2ms). Under sparse traffic the effective
	// window adaptively shrinks well below this, so idle-period requests
	// pay almost none of it.
	MaxDelay time.Duration
	// Logger receives batch-invoke error lines (with the trace IDs of
	// the failed requests). Nil discards them.
	Logger *slog.Logger
}

func (c *BatcherConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
}

// Batcher coalesces concurrent requests for one model into single
// InvokeBatch calls. A single collector goroutine gathers requests until
// the batch is full or the adaptive window expires, then runs the whole
// batch on one pooled interpreter. The window adapts to traffic: a full
// batch resets it to MaxDelay (waiting is paying off), a singleton batch
// halves it (down to MaxDelay/8) so sparse traffic is served near-
// immediately instead of always eating the worst-case delay.
type Batcher struct {
	v   *version
	cfg BatcherConfig

	mu     sync.RWMutex
	closed bool // guarded by Batcher.mu
	reqs   chan *batchReq
	// wg tracks the collector; flushWg tracks dispatched flushes.
	wg      sync.WaitGroup
	flushWg sync.WaitGroup

	// windowNs is the current adaptive gather window, exported to
	// /metrics as a gauge.
	windowNs atomic.Int64
}

type batchReq struct {
	in []int8
	// out is the response buffer, allocated once in Submit and filled in
	// place by InvokeBatchInto — the flush path allocates no per-row
	// output slices.
	out  []int8
	resp chan batchResp
	// enq marks when the request entered the queue; the flush worker
	// subtracts it from the invoke start to get per-request queue wait.
	enq time.Time
	// trace/parent carry the request's tracing state (both nil when the
	// caller did not opt in); the flush worker adds queue/invoke child
	// spans post hoc. traceID is the bare correlation ID every request
	// carries, for batch-error log lines.
	trace   *obs.Trace
	parent  *obs.SpanHandle
	traceID string
}

type batchResp struct {
	out []int8
	err error
}

// newBatcher starts the collector goroutine over a version's model, pool
// and counters.
func newBatcher(v *version, cfg BatcherConfig) *Batcher {
	cfg.fill()
	b := &Batcher{
		v:    v,
		cfg:  cfg,
		reqs: make(chan *batchReq, 4*cfg.MaxBatch),
	}
	b.windowNs.Store(int64(cfg.MaxDelay))
	b.wg.Add(1)
	go b.run()
	return b
}

// Window returns the current adaptive gather window.
func (b *Batcher) Window() time.Duration { return time.Duration(b.windowNs.Load()) }

// Close stops accepting work, flushes everything already queued, and
// waits for the collector and all in-flight flushes to finish. Safe to
// call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.reqs)
	}
	b.mu.Unlock()
	b.wg.Wait()
	b.flushWg.Wait()
}

// Submit queues one quantized input and blocks until its batch has run.
// Input length is validated here, before the request joins a batch, so a
// malformed request can never fail its co-batched neighbors. The returned
// buffer is owned by the caller.
func (b *Batcher) Submit(ctx context.Context, in []int8) ([]int8, error) {
	mod := b.v.model
	if want := mod.Tensors[mod.Input].Elems(); len(in) != want {
		b.v.stats.errors.Add(1)
		return nil, fmt.Errorf("serve: model %s: input has %d elements, want %d", b.v.name, len(in), want)
	}
	start := time.Now()
	r := &batchReq{
		in:      in,
		out:     make([]int8, mod.Tensors[mod.Output].Elems()),
		resp:    make(chan batchResp, 1),
		enq:     start,
		trace:   obs.TraceFrom(ctx),
		parent:  obs.SpanFrom(ctx),
		traceID: obs.TraceIDFrom(ctx),
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, ErrDraining
	}
	select {
	case b.reqs <- r:
		b.mu.RUnlock()
	case <-ctx.Done():
		b.mu.RUnlock()
		b.v.stats.canceled.Add(1)
		return nil, ctx.Err()
	}
	// The request is now owned by the collector and will always be
	// answered — even a context cancellation here just abandons the
	// buffered reply.
	select {
	case resp := <-r.resp:
		b.v.stats.latency.Observe(time.Since(start))
		if resp.err != nil {
			b.v.stats.errors.Add(1)
		}
		return resp.out, resp.err
	case <-ctx.Done():
		// The batch may still succeed; the caller just stopped waiting.
		// Count it as a cancellation, not a model error, so the /metrics
		// error rate keeps meaning "inference failed".
		b.v.stats.canceled.Add(1)
		return nil, ctx.Err()
	}
}

// run is the collector loop: wait for a first request, gather until full
// or the window closes, flush, adapt the window.
func (b *Batcher) run() {
	defer b.wg.Done()
	window := b.cfg.MaxDelay
	// One gather timer serves the whole collector lifetime. Since Go 1.23
	// timer channels are unbuffered, so Reset after Stop cannot deliver a
	// stale expiry — no drain dance needed between batches.
	timer := time.NewTimer(window)
	defer timer.Stop()
	timer.Stop()
	for {
		first, ok := <-b.reqs
		if !ok {
			return
		}
		batch := []*batchReq{first}
		timer.Reset(window)
	gather:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case r, ok := <-b.reqs:
				if !ok {
					break gather
				}
				batch = append(batch, r)
			case <-timer.C:
				break gather
			}
		}
		timer.Stop()
		b.flush(batch)
		switch {
		case len(batch) >= b.cfg.MaxBatch:
			window = b.cfg.MaxDelay
		case len(batch) == 1:
			if window > b.cfg.MaxDelay/8 {
				window /= 2
			}
		}
		b.windowNs.Store(int64(window))
	}
}

// flush acquires an interpreter — blocking when every pooled arena is
// busy, which is the batcher's backpressure — and dispatches the batch to
// run concurrently. With a pool of N, up to N batches execute in parallel
// while the collector goes straight back to gathering the next one, so
// pooled replicas beyond the first actually carry traffic.
func (b *Batcher) flush(batch []*batchReq) {
	ip := b.v.pool.Get()
	b.flushWg.Add(1)
	//microvet:ignore hotpathalloc one dispatch closure per batch lets up to pool-size batches run concurrently; amortized across the batch rows
	go func() {
		defer b.flushWg.Done()
		//microvet:ignore hotpathalloc per-batch row headers, amortized across the batch; the per-op invoke loop underneath stays zero-alloc
		inputs := make([][]int8, len(batch))
		//microvet:ignore hotpathalloc per-batch row headers, amortized across the batch; the per-op invoke loop underneath stays zero-alloc
		outs := make([][]int8, len(batch))
		for i, r := range batch {
			inputs[i] = r.in
			outs[i] = r.out
		}
		// Outputs land directly in each request's pre-allocated buffer.
		// An invoke error (impossible for length-validated inputs short
		// of a kernel bug) fails every request in the batch identically.
		invokeStart := time.Now()
		err := ip.InvokeBatchInto(inputs, outs)
		invokeDur := time.Since(invokeStart)
		if err != nil {
			ip.Reset()
		}
		b.v.pool.Put(ip)
		b.v.stats.observeBatch(len(batch))
		b.v.stats.invoke.Observe(invokeDur)
		for _, r := range batch {
			b.v.stats.queueWait.Observe(invokeStart.Sub(r.enq))
			if r.trace != nil {
				//microvet:ignore hotpathalloc span attributes only built when the request opted into tracing
				r.trace.Add("queue", r.parent, r.enq, invokeStart.Sub(r.enq), map[string]string{
					"model": b.v.name, "batch": fmt.Sprint(len(batch)), //microvet:ignore hotpathalloc span attributes only built when the request opted into tracing
				})
				//microvet:ignore hotpathalloc span attributes only built when the request opted into tracing
				r.trace.Add("invoke", r.parent, invokeStart, invokeDur, map[string]string{
					"model": b.v.name, "batch": fmt.Sprint(len(batch)), //microvet:ignore hotpathalloc span attributes only built when the request opted into tracing
				})
			}
			if err != nil {
				r.resp <- batchResp{err: err}
				continue
			}
			r.resp <- batchResp{out: r.out}
		}
		if err != nil && b.cfg.Logger != nil {
			//microvet:ignore hotpathalloc error path: a failed batch is already off the fast path
			ids := make([]string, 0, len(batch))
			for _, r := range batch {
				if r.traceID != "" {
					ids = append(ids, r.traceID) //microvet:ignore hotpathalloc error path: a failed batch is already off the fast path
				}
			}
			//microvet:ignore hotpathalloc error path: a failed batch is already off the fast path
			b.cfg.Logger.Error("batch invoke failed",
				"model", b.v.name, "batch", len(batch),
				"traces", strings.Join(ids, ","), "err", err)
		}
	}()
}

// stats holds one version's serving counters, updated with atomics from the
// handler, Submit, and collector goroutines.
type stats struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	// canceled counts requests whose caller's context expired before the
	// response was read — the model did nothing wrong, so these are kept
	// out of errors to preserve the error rate's meaning.
	canceled atomic.Uint64
	batches  atomic.Uint64
	batchSum atomic.Uint64
	batchMax atomic.Uint64
	// latency is end-to-end Submit latency (queue + invoke); queueWait
	// and invoke split it so a p99 regression is attributable to
	// batching pressure vs kernel time.
	latency   obs.Histogram
	queueWait obs.Histogram
	invoke    obs.Histogram
}

func (s *stats) observeBatch(n int) {
	s.batches.Add(1)
	s.batchSum.Add(uint64(n))
	s.requests.Add(uint64(n))
	for {
		cur := s.batchMax.Load()
		if uint64(n) <= cur || s.batchMax.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}
