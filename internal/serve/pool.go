package serve

import "micronets/internal/tflm"

// Pool is the fixed set of interpreters one model version serves from,
// all built at load. Every interpreter owns its own arena, so any two
// requests holding distinct pooled interpreters may Invoke concurrently;
// all of them execute over one shared, immutable tflm.Prepared — packed
// weight panels, folded biases and prefix sums are paid for once per
// version, and a replica adds only its private arena. The size is what
// the repository planned against the RAM budget, so a pool never grows.
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

// Get returns an idle interpreter, blocking until one is released when
// every replica is busy. Callers must Put it back.
func (p *Pool) Get() *tflm.Interpreter { return <-p.ch }

// Put returns an interpreter to the pool. Callers that observed an Invoke
// error must Reset the interpreter first (see Interpreter.Reset); on the
// success path the arena contents are overwritten by the next request's
// input, so no scrub is needed.
func (p *Pool) Put(ip *tflm.Interpreter) { p.ch <- ip }
