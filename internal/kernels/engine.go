package kernels

import (
	"micronets/internal/graph"
)

// Engine is one implementation of the compute-heavy kernels. Exactly two
// ship: Reference (the naive direct loops, kept as the semantic ground
// truth) and Default (im2col + cache-blocked parallel int8 GEMM over
// 16-column weight panels, the host path every interpreter uses). Both
// produce bit-exact identical int8 outputs; the parity and fuzz tests
// enforce it. Add binds per engine too (Default runs eight lanes at a
// time where the assembly can); Softmax is engine-independent.
//
// The interface is sealed: the unexported bind methods resolve one op
// into an allocation-free executor, and BindOp is the only way to run an
// op on an engine.
type Engine interface {
	Name() string
	// ScratchBytes reports how much im2col scratch the engine wants for a
	// model (0 for engines that need none); interpreters carve exactly
	// this much from the arena tail and hand it over via Scratch.Im2col.
	ScratchBytes(m *graph.Model) int

	bindConv2D(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, s *Scratch) func()
	bindDWConv2D(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, s *Scratch) func()
	bindDense(m *graph.Model, op *graph.Op, ctx *Ctx, in, out []int8, s *Scratch) func()
	bindAvgPool(m *graph.Model, op *graph.Op, in, out []int8, s *Scratch) func()
	bindMaxPool(m *graph.Model, op *graph.Op, in, out []int8, s *Scratch) func()
	bindAdd(m *graph.Model, op *graph.Op, ctx *Ctx, a, b, out []int8, s *Scratch) func()
}

// Reference is the naive direct-convolution engine: one quadruple-nested
// loop per op, no parallelism, no scratch. It is the bit-exactness oracle
// for Default and the baseline the Benchmark* functions compare against.
var Reference Engine = refEngine{}

// Default is the one fast engine: im2col into planner-provided scratch
// tiles, register-tiled int8 GEMM over pre-packed weight panels, and the
// worker pool fanned out across output tiles. Its loops run the AVX2
// assembly where the CPU and OS support it (checked once, here) and the
// portable microkernels otherwise, over one packed layout. Interpreters
// that do not ask for a specific engine get this one.
var Default Engine = gemmEngine{simd: haveSIMD}

type refEngine struct{}

func (refEngine) Name() string                    { return "reference" }
func (refEngine) ScratchBytes(m *graph.Model) int { return 0 }
