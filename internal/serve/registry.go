package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"micronets/internal/arch"
	"micronets/internal/graph"
	"micronets/internal/tensor"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// newWeightRNG seeds the synthetic-weight stream exactly as
// micronets.Deploy does, so a served model is bit-identical to a deployed
// one at the same seed.
func newWeightRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// sortEntries orders entries by name for stable listings.
func sortEntries(es []*Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Name < es[j].Name })
}

// ModelOptions selects how a spec is lowered to the runtime. It mirrors
// micronets.DeployOptions (which cannot be imported here without a cycle)
// and is comparable so it can key the registry cache.
type ModelOptions struct {
	// WeightBits and ActBits select the datatype (0 or 8 for standard
	// int8; 4 for the paper's emulated sub-byte kernels).
	WeightBits, ActBits int
	// Seed controls the synthetic weights used when no trained model is
	// supplied; equal seeds lower to bit-identical models.
	Seed int64
	// AppendSoftmax adds the classifier softmax op.
	AppendSoftmax bool
}

// normalize folds the zero-value datatypes onto their defaults, mirroring
// graph.FromSpec — {0,0} and {8,8} lower to bit-identical models and must
// share one cache entry (and one pre-warmed pool).
func (o ModelOptions) normalize() ModelOptions {
	if o.WeightBits == 0 {
		o.WeightBits = 8
	}
	if o.ActBits == 0 {
		o.ActBits = 8
	}
	return o
}

// RegistryConfig configures a Registry.
type RegistryConfig struct {
	// PoolSize is the number of pre-warmed interpreters per model
	// (default 2). Each costs one arena of the model's planned size.
	PoolSize int
	// PoolMax bounds lazy pool growth under concurrent load (default:
	// PoolSize, i.e. no growth beyond the pre-warmed set).
	PoolMax int
	// MaxEntries bounds the cache (0 = unbounded, for servers with a
	// fixed model set). When exceeded, the least-recently-used completed
	// entry is evicted; in-flight lowerings are never evicted. Callers
	// still holding an evicted Entry keep using it safely — eviction only
	// drops the cache reference.
	MaxEntries int
}

// Entry is one lowered, pooled model.
type Entry struct {
	Name  string
	Spec  *arch.Spec
	Model *graph.Model
	Pool  *Pool
	// ArenaBytes is the RAM cost of one pooled interpreter (activations
	// plus engine scratch), recorded at warm-up.
	ArenaBytes int
	// WeightBytes is the RAM cost of the prepared kernel state (packed
	// panels, folded biases, prefix sums) shared by every replica of the
	// pool — paid once per entry, not per interpreter.
	WeightBytes int
	stats       stats
}

// Stats returns a snapshot of the entry's serving counters.
func (e *Entry) Stats() StatsSnapshot { return e.stats.snapshot() }

// registryKey identifies one cached lowering: the spec fingerprint (not
// just the name — a caller may rebuild a same-named spec with different
// blocks) plus the lowering options.
type registryKey struct {
	fingerprint string
	opts        ModelOptions
}

// Registry lowers each requested spec once, plans its memory once (inside
// pool warm-up), and caches the result. All methods are safe for
// concurrent use; concurrent Get calls for the same key perform one
// lowering and share the Entry.
type Registry struct {
	cfg       RegistryConfig
	mu        sync.Mutex
	entries   map[registryKey]*entrySlot
	seq       int64
	lowerings atomic.Uint64
}

// entrySlot lets concurrent Get calls for the same key block on one
// in-flight lowering instead of duplicating it.
type entrySlot struct {
	once  sync.Once
	entry *Entry
	err   error
	// done flips after once completes; only done slots are evictable.
	done atomic.Bool
	// lastUsed is a registry sequence stamp for LRU eviction.
	lastUsed int64
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 2
	}
	return &Registry{cfg: cfg, entries: make(map[registryKey]*entrySlot)}
}

// Lowerings returns how many graph lowerings the registry has performed —
// repeat Gets for the same spec and options must not increase it.
func (r *Registry) Lowerings() uint64 { return r.lowerings.Load() }

// Get returns the cached entry for a zoo model, lowering and pool-warming
// it on first use.
func (r *Registry) Get(name string, opts ModelOptions) (*Entry, error) {
	e, err := zoo.Get(name)
	if err != nil {
		return nil, err
	}
	if e.Spec == nil {
		return nil, fmt.Errorf("serve: %s is a stats-only comparison point (no public architecture)", name)
	}
	return r.GetSpec(e.Spec, opts)
}

// GetSpec is Get for an arbitrary (possibly non-zoo) spec.
func (r *Registry) GetSpec(spec *arch.Spec, opts ModelOptions) (*Entry, error) {
	opts = opts.normalize()
	key := registryKey{fingerprint: fingerprint(spec), opts: opts}
	r.mu.Lock()
	r.seq++
	slot, ok := r.entries[key]
	if !ok {
		slot = &entrySlot{}
		r.entries[key] = slot
		r.evictLocked(slot)
	}
	slot.lastUsed = r.seq
	r.mu.Unlock()
	slot.once.Do(func() {
		slot.entry, slot.err = r.lower(spec, opts)
		slot.done.Store(true)
	})
	if slot.err != nil {
		// Drop the failed slot so a transient failure is retryable.
		r.mu.Lock()
		if r.entries[key] == slot {
			delete(r.entries, key)
		}
		r.mu.Unlock()
	}
	return slot.entry, slot.err
}

// evictLocked drops least-recently-used completed entries until the cache
// is back within MaxEntries. keep is the slot being inserted, never
// evicted. Called with r.mu held; the scan is O(n) with n ≤ MaxEntries+1.
func (r *Registry) evictLocked(keep *entrySlot) {
	if r.cfg.MaxEntries <= 0 {
		return
	}
	for len(r.entries) > r.cfg.MaxEntries {
		var oldestKey registryKey
		var oldest *entrySlot
		for k, s := range r.entries {
			if s == keep || !s.done.Load() {
				continue
			}
			if oldest == nil || s.lastUsed < oldest.lastUsed {
				oldest, oldestKey = s, k
			}
		}
		if oldest == nil {
			return // everything else is in flight; nothing evictable
		}
		delete(r.entries, oldestKey)
	}
}

// lower performs the expensive path: spec → graph lowering → pool warm-up
// (which plans memory and prepares kernels once per pooled interpreter).
func (r *Registry) lower(spec *arch.Spec, opts ModelOptions) (*Entry, error) {
	r.lowerings.Add(1)
	m, err := graph.FromSpec(spec, newWeightRNG(opts.Seed), graph.LowerOptions{
		WeightBits:    opts.WeightBits,
		ActBits:       opts.ActBits,
		AppendSoftmax: opts.AppendSoftmax,
	})
	if err != nil {
		return nil, err
	}
	return newEntry(spec, m, r.cfg.PoolSize, r.cfg.PoolMax)
}

// newEntry warms a pool for an already-lowered model — the shared entry
// constructor of the Registry (fixed pool sizes) and the Repository
// (budget-planned pool sizes).
func newEntry(spec *arch.Spec, m *graph.Model, prewarm, max int) (*Entry, error) {
	prep, err := tflm.Prepare(m)
	if err != nil {
		return nil, err
	}
	return newEntryPrepared(spec, m, prep, prewarm, max)
}

// newEntryPrepared is newEntry over caller-supplied prepared state, so
// the repository charges the budget with the exact weight bytes the pool
// will share.
func newEntryPrepared(spec *arch.Spec, m *graph.Model, prep *tflm.Prepared, prewarm, max int) (*Entry, error) {
	pool, err := NewPoolPrepared(prep, prewarm, max)
	if err != nil {
		return nil, err
	}
	return &Entry{
		Name: spec.Name, Spec: spec, Model: m, Pool: pool,
		ArenaBytes:  pool.ArenaBytes(),
		WeightBytes: pool.WeightBytes(),
	}, nil
}

// Entries returns the currently loaded entries sorted by name. In-flight
// lowerings are skipped: the done.Load gate pairs with the done.Store
// after slot.entry is written, so the read is race-free even while
// another goroutine is mid-lowering.
func (r *Registry) Entries() []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Entry
	for _, s := range r.entries {
		if s.done.Load() && s.entry != nil {
			out = append(out, s.entry)
		}
	}
	sortEntries(out)
	return out
}

// fingerprint renders a spec to a deterministic string covering every
// field that affects lowering. %+v over the value (Blocks included) is
// stable for these plain structs and far cheaper than the lowering it
// guards.
func fingerprint(s *arch.Spec) string {
	return fmt.Sprintf("%s|%dx%dx%d|%d|%+v", s.Name, s.InputH, s.InputW, s.InputC, s.NumClasses, s.Blocks)
}

// ClassifyBatch runs a float input batch through one pooled interpreter of
// the entry, amortizing lowering and planning across every call that hits
// the same registry entry. It is the serving-path backend of
// micronets.ClassifyBatch.
func (e *Entry) ClassifyBatch(xs []*tensor.Tensor) ([]int, []float32, error) {
	ip := e.Pool.Get()
	defer e.Pool.Put(ip)
	classes, scores, err := ip.ClassifyBatch(xs)
	if err != nil {
		// A failed invoke may leave partial activations; scrub before the
		// interpreter goes back into circulation.
		ip.Reset()
	}
	return classes, scores, err
}
