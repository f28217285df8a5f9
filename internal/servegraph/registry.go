package servegraph

import (
	"sort"
	"sync"

	"micronets/internal/obs"
)

// Registry holds the registered graphs of one server. All methods are
// safe for concurrent use; a Graph's Infer runs lock-free against its own
// snapshot, so a concurrent re-registration never fails in-flight requests.
type Registry struct {
	backend Backend
	mu      sync.RWMutex
	graphs  map[string]*Graph
	revs    map[string]int
}

// NewRegistry returns an empty registry routing over backend.
func NewRegistry(backend Backend) *Registry {
	return &Registry{backend: backend, graphs: make(map[string]*Graph), revs: make(map[string]int)}
}

// Put validates spec against the backend's current index, compiles it,
// and installs it under spec.Name — replacing any previous registration
// (whose in-flight requests finish against the old compiled tree).
// Counters start fresh on every registration.
func (r *Registry) Put(spec *Spec) (*Graph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := ""
	if spec != nil {
		name = spec.Name
	}
	g, err := compile(spec, r.backend, r.revs[name]+1)
	if err != nil {
		return nil, err
	}
	r.revs[name]++
	r.graphs[name] = g
	return g, nil
}

// Get returns the registered graph for a name.
func (r *Registry) Get(name string) (*Graph, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if g, ok := r.graphs[name]; ok {
		return g, nil
	}
	return nil, &NotFoundError{Graph: name}
}

// Delete removes a graph, releasing its model references.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; !ok {
		return &NotFoundError{Graph: name}
	}
	delete(r.graphs, name)
	return nil
}

// List returns the registered graphs sorted by name.
func (r *Registry) List() []*Graph {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Graph, 0, len(r.graphs))
	for _, g := range r.graphs {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec.Name < out[j].spec.Name })
	return out
}

// Referenced returns the names of graphs referencing a model, sorted —
// the repository's unload guard consults it so a model serving a graph
// cannot be dropped out from under it.
func (r *Registry) Referenced(model string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for name, g := range r.graphs {
		for _, m := range g.models {
			if m == model {
				out = append(out, name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// NodeStats is a point-in-time snapshot of one node's counters.
type NodeStats struct {
	// Node is the metrics label (NodeSpec.Name or the path, e.g. "root.1").
	Node string `json:"node"`
	Kind string `json:"kind"`
	// Model is set on model leaves.
	Model    string `json:"model,omitempty"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors,omitempty"`
	// GateHits and Escalations are cascade counters: answers produced by
	// a non-final stage vs requests passed to the next stage.
	GateHits    uint64 `json:"gate_hits,omitempty"`
	Escalations uint64 `json:"escalations,omitempty"`
	// Picks and Weight describe a splitter arm: how often it was chosen
	// and its normalized traffic share.
	Picks  uint64  `json:"picks,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

// GraphStats is a point-in-time snapshot of one graph's counters — the
// payload of GET /v2/graphs/{name} and the source of /metrics families.
type GraphStats struct {
	Name      string `json:"name"`
	Revision  int    `json:"revision"`
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	LatencyNs uint64 `json:"latency_ns_sum"`
	LatencyN  uint64 `json:"latency_count"`
	// P50/P95/P99 come from the graph's latency histogram; Latency is
	// the full snapshot behind them, rendered on /metrics.
	P50Ms       float64      `json:"p50_ms"`
	P95Ms       float64      `json:"p95_ms"`
	P99Ms       float64      `json:"p99_ms"`
	Latency     obs.Snapshot `json:"-"`
	Models      []string     `json:"models"`
	Nodes       []NodeStats  `json:"nodes"`
	InputShape  []int        `json:"input_shape"`
	OutputElems int          `json:"output_elems"`
}

// Stats snapshots one graph's counters.
func (g *Graph) Stats() GraphStats {
	lat := g.lat.Snapshot()
	st := GraphStats{
		Name:        g.spec.Name,
		Revision:    g.revision,
		Requests:    g.requests.Load(),
		Errors:      g.errors.Load(),
		LatencyNs:   uint64(lat.SumNs),
		LatencyN:    lat.Count,
		P50Ms:       lat.P50().Seconds() * 1e3,
		P95Ms:       lat.P95().Seconds() * 1e3,
		P99Ms:       lat.P99().Seconds() * 1e3,
		Latency:     lat,
		Models:      g.Models(),
		InputShape:  []int{g.InputH, g.InputW, g.InputC},
		OutputElems: g.OutputElems,
	}
	var walk func(n *cnode)
	walk = func(n *cnode) {
		ns := NodeStats{
			Node:        n.label,
			Kind:        n.kind,
			Model:       n.model,
			Requests:    n.requests.Load(),
			Errors:      n.errors.Load(),
			GateHits:    n.gateHits.Load(),
			Escalations: n.escalations.Load(),
			Picks:       n.picks.Load(),
			Weight:      n.weight,
		}
		st.Nodes = append(st.Nodes, ns)
		for _, child := range n.children {
			walk(child)
		}
	}
	walk(g.root)
	return st
}

// Snapshot returns the stats of every registered graph, sorted by name.
func (r *Registry) Snapshot() []GraphStats {
	gs := r.List()
	out := make([]GraphStats, len(gs))
	for i, g := range gs {
		out[i] = g.Stats()
	}
	return out
}
