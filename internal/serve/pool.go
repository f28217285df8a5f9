package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"micronets/internal/obs"
	"micronets/internal/tflm"
)

// Pool is the fixed set of interpreters one model version serves from,
// all built at load. Every interpreter owns its own batch-1 arena, so any
// two requests holding distinct pooled interpreters may Invoke
// concurrently; all of them execute over one shared, immutable
// tflm.Prepared — packed weight panels, folded biases and prefix sums are
// paid for once per version, and a replica adds only its private arena.
// The size is what the repository planned against the RAM budget, so a
// pool never grows.
type Pool struct {
	// ch's capacity is the pool size; idle interpreters sit in it.
	ch chan *tflm.Interpreter
}

// newPool builds size interpreters over already-prepared model state. It
// fails like Prepared.NewInterpreter does, so a pool that constructs can
// always serve.
func newPool(prep *tflm.Prepared, size int) (*Pool, error) {
	p := &Pool{ch: make(chan *tflm.Interpreter, size)}
	for i := 0; i < size; i++ {
		ip, err := prep.NewInterpreter(0)
		if err != nil {
			return nil, err
		}
		p.ch <- ip
	}
	return p, nil
}

// Get returns an idle interpreter, waiting while every replica is busy,
// or the context's error if it ends first. Callers must Put it back.
func (p *Pool) Get(ctx context.Context) (*tflm.Interpreter, error) {
	select {
	case ip := <-p.ch:
		return ip, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Put returns an interpreter to the pool. Callers that observed an Invoke
// error must Reset the interpreter first (see Interpreter.Reset); on the
// success path the arena contents are overwritten by the next request's
// input, so no scrub is needed.
func (p *Pool) Put(ip *tflm.Interpreter) { p.ch <- ip }

// infer runs one quantized input row on a free pooled interpreter and
// writes the model's output into out, which must hold the output tensor's
// element count. It is the whole request path below the codec: wait for
// an interpreter (a caller whose context ends first is counted as
// canceled), copy the row in, Invoke, copy the answer out, put the
// interpreter back. Concurrent rows run in parallel on distinct
// interpreters; once a row holds one it runs to completion, so a caller
// cancelling mid-invoke gets its answer after at most one invoke.
//
// It is a root of the hotpathalloc analyzer: nothing here allocates.
func (v *version) infer(ctx context.Context, in, out []int8) error {
	if want := v.model.Tensors[v.model.Input].Elems(); len(in) != want {
		v.stats.errors.Add(1)
		return rowLenError{model: v.name, got: len(in), want: want}
	}
	start := time.Now()
	ip, err := v.pool.Get(ctx)
	if err != nil {
		v.stats.canceled.Add(1)
		return err
	}
	invokeStart := time.Now()
	copy(ip.Input(), in)
	err = ip.Invoke()
	copy(out, ip.Output())
	if err != nil {
		ip.Reset()
	}
	v.pool.Put(ip)
	end := time.Now()

	v.stats.requests.Add(1)
	if err != nil {
		v.stats.errors.Add(1)
	}
	v.stats.queueWait.Observe(invokeStart.Sub(start))
	v.stats.invoke.Observe(end.Sub(invokeStart))
	v.stats.latency.Observe(end.Sub(start))
	if tr := obs.TraceFrom(ctx); tr != nil {
		parent := obs.SpanFrom(ctx)
		tr.Add("queue", parent, start, invokeStart.Sub(start), v.spanAttrs)
		tr.Add("invoke", parent, invokeStart, end.Sub(invokeStart), v.spanAttrs)
	}
	return err
}

// rowLenError rejects an input row whose length is not the model's input
// element count. A value type, so the request path builds it without
// formatting anything.
type rowLenError struct {
	model     string
	got, want int
}

func (e rowLenError) Error() string {
	return fmt.Sprintf("serve: model %s: input has %d elements, want %d", e.model, e.got, e.want)
}

// stats holds one version's serving counters, updated with atomics by
// every request that runs on the version.
type stats struct {
	// requests counts rows that ran through Invoke.
	requests atomic.Uint64
	errors   atomic.Uint64
	// canceled counts requests whose caller's context ended while they
	// waited for an interpreter — the model did nothing wrong, so these
	// are kept out of errors to preserve the error rate's meaning.
	canceled atomic.Uint64
	// latency is end-to-end row latency; queueWait (waiting for a free
	// interpreter) and invoke split it so a p99 regression is
	// attributable to pool contention vs kernel time.
	latency   obs.Histogram
	queueWait obs.Histogram
	invoke    obs.Histogram
	// decode is the per-request codec step before any row runs: body
	// read, parse and quantize of every row. encode is the other end:
	// writing a successful response.
	decode obs.Histogram
	encode obs.Histogram
}
