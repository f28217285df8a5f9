package tflm

import (
	"fmt"
	"math"
	"time"

	"micronets/internal/graph"
	"micronets/internal/kernels"
	"micronets/internal/tensor"
)

// Interpreter executes a graph.Model, mirroring TFLM's MicroInterpreter:
// construct, AllocateTensors (memory planning + op preparation), set the
// input, Invoke, read the output.
//
// All model-derived state (plan, packed weights) lives in the shared,
// immutable Prepared; the interpreter owns only its private arena and
// scratch plus per-op executors bound once at construction. A warm
// Invoke therefore performs zero heap allocations (enforced by
// TestInvokeZeroAllocs) and replicas of one Prepared share one weight
// copy.
type Interpreter struct {
	prep  *Prepared
	model *graph.Model
	arena []int8
	// bufs[i] is tensor i's slice into the arena.
	bufs [][]int8
	// scratch is this replica's private mutable kernel state: the im2col
	// region (the planner-accounted arena tail), depthwise accumulators,
	// softmax staging, and the reusable fork-join context.
	scratch *kernels.Scratch
	// steps[i] executes op i: bound once against the arena and the shared
	// prepared contexts, so the invoke loop is just calling them in order.
	steps []func()
	// opTimer, when non-nil, receives each op's wall time during Invoke.
	// The nil check is hoisted out of the hot loop so the disabled case
	// costs one branch per Invoke, not per op.
	opTimer OpTimerFunc
}

// OpTimerFunc observes one executed op: its index in the model's op
// list, kind, name, and wall-clock nanoseconds. It is called inline on
// the invoke path, so implementations must be cheap and must not block.
type OpTimerFunc func(index int, kind graph.OpKind, name string, ns int64)

// SetOpTimer installs (or with nil, removes) the per-op timing hook.
// Not safe to call concurrently with Invoke — profile on an interpreter
// you own, e.g. one checked out of a pool.
func (ip *Interpreter) SetOpTimer(fn OpTimerFunc) { ip.opTimer = fn }

// OpTiming is one row of a profiled invoke: measured wall time for one
// op, ready to join against the mcu cost model's predicted cycles.
type OpTiming struct {
	Index int
	Kind  graph.OpKind
	Name  string
	Ns    int64
}

// NewInterpreter plans memory and prepares kernels for the default
// (parallel GEMM) engine. arenaLimit (bytes) bounds the activation arena;
// pass 0 for unlimited (host-side use). It fails — like TFLM — if the
// model contains unsupported ops or the arena does not fit.
func NewInterpreter(m *graph.Model, arenaLimit int) (*Interpreter, error) {
	return NewInterpreterWithEngine(m, arenaLimit, kernels.Default)
}

// NewInterpreterWithEngine is NewInterpreter with an explicit kernel
// engine — kernels.Reference for the naive bit-exactness oracle,
// kernels.Default for the im2col+GEMM parallel path. An interpreter is not
// safe for concurrent Invoke calls (it owns one arena), but distinct
// interpreters may run concurrently. Callers building several replicas
// of one model should Prepare once and stamp interpreters from that
// instead, sharing the packed weights.
func NewInterpreterWithEngine(m *graph.Model, arenaLimit int, eng kernels.Engine) (*Interpreter, error) {
	prep, err := PrepareWithEngine(m, eng)
	if err != nil {
		return nil, err
	}
	return prep.NewInterpreter(arenaLimit)
}

// ArenaBytes returns the interpreter's total arena size (activations plus
// engine scratch) — what one pooled replica of this model costs in RAM
// beyond the shared prepared weights.
func (ip *Interpreter) ArenaBytes() int { return len(ip.arena) }

// Reset zeroes the activation arena and scratch region, returning the
// interpreter to its freshly allocated state. Serving pools call it before
// reusing an interpreter whose last Invoke failed, so a partial execution
// cannot leak stale activations into the next request. It never fails and
// keeps the memory plan and prepared kernels intact.
func (ip *Interpreter) Reset() {
	for i := range ip.arena {
		ip.arena[i] = 0
	}
}

// Input returns the raw quantized input buffer.
func (ip *Interpreter) Input() []int8 { return ip.bufs[ip.model.Input] }

// Output returns the raw quantized output buffer.
func (ip *Interpreter) Output() []int8 { return ip.bufs[ip.model.Output] }

// QuantizeInput maps one real value into t's quantized domain —
// round(v/scale) + zero point, saturated to the tensor's bit width. It is
// the one affine input quantizer of the module (SetInputFloat and the
// serving codec both go through it), and the one home of the 4-bit bounds
// (today the runtime rejects 4-bit activations at Prepare time, so only
// the 8-bit arm is reachable). The clamp happens in the float domain,
// before the integer conversion: a float outside int32 converts
// implementation-dependently, which used to send +1e300 to the low rail.
// NaN saturates low.
func QuantizeInput(t *graph.Tensor, v float64) int8 {
	lo, hi := -128.0, 127.0
	if t.Bits == 4 {
		lo, hi = -8, 7
	}
	q := math.Round(v/float64(t.Scale)) + float64(t.ZeroPoint)
	switch {
	case q >= hi:
		return int8(hi)
	case q > lo:
		return int8(q)
	}
	return int8(lo)
}

// SetInputFloat quantizes a float tensor (shape [h,w,c] or flat of the
// right size) into the input buffer.
func (ip *Interpreter) SetInputFloat(x *tensor.Tensor) error {
	in := ip.model.Tensors[ip.model.Input]
	if x.Len() != in.Elems() {
		return fmt.Errorf("tflm: input has %d elements, model wants %d", x.Len(), in.Elems())
	}
	buf := ip.Input()
	for i, v := range x.Data {
		buf[i] = QuantizeInput(in, float64(v))
	}
	return nil
}

// OutputFloat dequantizes the output buffer.
func (ip *Interpreter) OutputFloat() []float32 {
	out := ip.model.Tensors[ip.model.Output]
	buf := ip.Output()
	res := make([]float32, out.Elems())
	for i := range res {
		res[i] = out.Scale * float32(int32(buf[i])-out.ZeroPoint)
	}
	return res
}

// Invoke runs all ops in order on the interpreter's engine. Dispatch,
// shape derivation, and scratch sizing all happened at bind time, so the
// warm path is a plain loop over pre-bound executors: zero allocations,
// no failure modes (unsupported ops were rejected at construction).
func (ip *Interpreter) Invoke() error {
	if ip.opTimer != nil {
		return ip.invokeTimed()
	}
	for _, step := range ip.steps {
		step()
	}
	return nil
}

// invokeTimed is Invoke with the per-op timer active, kept out of line
// so the common untimed loop stays branch-free per op.
func (ip *Interpreter) invokeTimed() error {
	for i, op := range ip.model.Ops {
		start := time.Now()
		ip.steps[i]()
		ip.opTimer(i, op.Kind, op.Name, time.Since(start).Nanoseconds())
	}
	return nil
}

// ProfileInvoke runs one invoke with a temporary timing hook and
// returns the measured per-op table in execution order. Any previously
// installed hook is restored afterwards. The input buffer is used as-is
// (set it first, or profile on whatever the arena holds).
func (ip *Interpreter) ProfileInvoke() ([]OpTiming, error) {
	prev := ip.opTimer
	timings := make([]OpTiming, 0, len(ip.model.Ops))
	ip.opTimer = func(index int, kind graph.OpKind, name string, ns int64) {
		timings = append(timings, OpTiming{Index: index, Kind: kind, Name: name, Ns: ns})
	}
	err := ip.Invoke()
	ip.opTimer = prev
	if err != nil {
		return nil, err
	}
	return timings, nil
}
