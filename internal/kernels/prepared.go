package kernels

import (
	"micronets/internal/graph"
)

// PreparedModel is the immutable, model-derived kernel state for every op
// of a model: packed weight panels, zero-point-folded biases, depthwise
// weight prefix sums, and requantization multipliers. It depends only on
// the model (never on an arena), is never written after Prepare returns,
// and is therefore safe to share read-only across any number of
// concurrently invoking interpreters — one copy per model instead of one
// per pool replica. This is the TinyEngine-style split: prepare once,
// share the layout-specialized weights, keep only per-worker scratch
// private.
type PreparedModel struct {
	ctxs  []*Ctx
	bytes int
}

// PrepareModel runs PrepareConv for every conv/dense/depthwise op of the
// model and freezes the result.
func PrepareModel(m *graph.Model) *PreparedModel {
	p := &PreparedModel{ctxs: make([]*Ctx, len(m.Ops))}
	for i, op := range m.Ops {
		switch op.Kind {
		case graph.OpConv2D, graph.OpDWConv2D, graph.OpDense:
			p.ctxs[i] = PrepareConv(m, op)
			p.bytes += p.ctxs[i].Bytes()
		}
	}
	return p
}

// Ctx returns op i's prepared kernel context (nil for ops that need
// none). Callers must treat it as read-only.
func (p *PreparedModel) Ctx(i int) *Ctx { return p.ctxs[i] }

// Bytes is the RAM footprint of the prepared state: packed panels,
// folded biases, depthwise base rows and tap pairs, and multipliers
// summed over all ops. With sharing this is paid once per model;
// without it, once per replica.
func (p *PreparedModel) Bytes() int { return p.bytes }

// Bytes is the RAM footprint of one op's prepared context: the capacity
// of every slice it holds, padding included (TestCtxBytesCountsEverySlice
// keeps the list complete).
func (c *Ctx) Bytes() int {
	return cap(c.panels) + cap(c.dwPad) + 2*cap(c.dwPairs) +
		4*(cap(c.m0)+cap(c.rshift)+cap(c.zpBias)+cap(c.dwBase))
}
