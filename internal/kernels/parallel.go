package kernels

import (
	"runtime"
	"sync"
)

// The host-side kernels parallelize across a fixed pool of
// runtime.NumCPU() worker goroutines. A shared pool (rather than
// per-call goroutine spawning) keeps per-op dispatch overhead low enough
// that even the small KWS layers benefit, and bounds the number of
// concurrently live im2col scratch tiles so the tflm planner can account
// for them up front.
//
// Dispatch is allocation-free: workers consume fixed-size chunkTask
// values from a buffered channel and call back into the Parallel that
// issued them. Together with once-bound op closures (see exec.go) this
// is what makes a warm Interpreter.Invoke report zero allocations.

var (
	poolOnce sync.Once
	poolSize int
	tasks    chan chunkTask
)

// chunkTask is one chunk of a fork-join loop, dispatched by value so
// issuing work allocates nothing.
type chunkTask struct {
	p      *Parallel
	chunk  int
	lo, hi int
}

//microvet:hotpath-stop one-time worker-pool construction behind poolOnce; never re-runs on the serve path
func initPool() {
	poolSize = runtime.NumCPU()
	if poolSize < 1 {
		poolSize = 1
	}
	tasks = make(chan chunkTask, 4*poolSize)
	for i := 0; i < poolSize; i++ {
		go func() {
			for t := range tasks {
				t.p.fn(t.chunk, t.lo, t.hi)
				t.p.wg.Done()
			}
		}()
	}
}

// Workers returns the size of the kernel worker pool. Parallel.For never
// splits a loop into more than this many chunks, which is what lets
// ScratchBytes size the im2col region as Workers() scratch tiles.
func Workers() int {
	poolOnce.Do(initPool)
	return poolSize
}

// Parallel is a reusable fork-join context. One loop runs at a time per
// Parallel; distinct Parallel values (one per interpreter scratch) may
// fork concurrently. Reusing the same value across calls keeps the
// WaitGroup and the fn slot off the per-invoke allocation path.
type Parallel struct {
	fn func(chunk, lo, hi int)
	wg sync.WaitGroup
}

// For splits [0, n) into at most Workers() contiguous chunks of at least
// minGrain iterations each (so a loop shorter than 2·minGrain is never
// split) and runs fn(chunk, lo, hi) for every chunk, returning when all
// chunks are done. Chunk indices are dense in
// [0, Workers()), so callers may use them to claim disjoint scratch
// regions. Small loops (or a single-CPU pool) run inline on the calling
// goroutine with chunk 0. When fn is a closure that outlives the call
// (bound once, invoked many times), For performs no allocations.
func (p *Parallel) For(n, minGrain int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if minGrain < 1 {
		minGrain = 1
	}
	chunks := min(Workers(), n/minGrain)
	if chunks <= 1 {
		fn(0, 0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	p.fn = fn
	for c := 1; c < chunks; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		p.wg.Add(1)
		select {
		case tasks <- chunkTask{p: p, chunk: c, lo: lo, hi: hi}:
		default:
			// Pool backed up (e.g. concurrent interpreters): run inline
			// rather than blocking; chunk ids stay disjoint either way.
			fn(c, lo, hi)
			p.wg.Done()
		}
	}
	fn(0, 0, size)
	p.wg.Wait()
	p.fn = nil
}
