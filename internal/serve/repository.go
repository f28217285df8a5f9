package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"micronets/internal/arch"
	"micronets/internal/graph"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// Repository is the serving control plane: it owns the lifecycle of every
// served model as a sequence of versions, each one a lowered graph and a
// fully built interpreter pool.
//
// Lifecycle semantics, in the KServe/Triton model-repository style:
//
//   - Load lowers a spec, plans its capacity against the RAM budget, warms
//     a pool, and publishes the result as a new version of the name. If an
//     older version was serving, the swap is blue/green: the new version
//     must be READY before it becomes visible, and the old one keeps
//     serving its in-flight requests while DRAINING, releasing its budget
//     reservation only once they finish.
//   - Loading the exact same spec fingerprint + options again is an
//     idempotent no-op: the active version is returned unchanged.
//   - Unload drains the active version and drops the name.
//
// Capacity is budget-driven rather than fixed: a version reserves its
// shared prepared weights plus pool × the tflm.PlanMemory arena — the
// batch-1 arena every pooled interpreter actually allocates — with pool
// the configured PoolSize or as many replicas as still fit, whichever is
// smaller. A load that cannot fit even one replica is rejected with a
// structured *BudgetError instead of OOMing at serve time — the host-side
// emulation of deploying onto a device class with that much SRAM.
//
// Because a swap is make-before-break, BOTH versions hold their arena
// reservations during the drain window: hot-swapping a model therefore
// needs its new arena to fit next to the old one (transient 2× for a
// same-size respin). A model too large for that can still be redeployed
// break-before-make — Unload, wait for the index row to disappear, then
// Load — at the cost of 404s in between; the budget never lies about
// what the emulated device could actually hold.
type Repository struct {
	cfg RepositoryConfig

	mu      sync.Mutex
	models  map[string]*repoModel // guarded by Repository.mu
	planned int                   // bytes reserved by live (loading+active+draining) versions; guarded by Repository.mu
	closed  bool                  // guarded by Repository.mu

	// unloadGuard, when set, can veto an Unload (e.g. the graph registry
	// vetoes unloading a model a registered graph references).
	guardMu     sync.RWMutex
	unloadGuard func(model string) error // guarded by Repository.guardMu

	closeOnce sync.Once
	lowerings atomic.Uint64
}

// SetUnloadGuard installs (or clears, with nil) a hook consulted at the
// top of every Unload: a non-nil error vetoes the unload and is returned
// to the caller verbatim. The server wires the inference-graph registry
// through this so a model referenced by a registered graph answers 409
// instead of being dropped out from under the graph. Swaps (re-Load of
// the same name) are intentionally not guarded — graphs bind names, not
// versions.
func (r *Repository) SetUnloadGuard(guard func(model string) error) {
	r.guardMu.Lock()
	r.unloadGuard = guard
	r.guardMu.Unlock()
}

// ModelOptions selects how a spec is lowered to the runtime — by the
// repository, cmd/deploy and the examples alike — and is comparable so it
// can key a version's identity.
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

// Lower lowers spec to the int8 graph IR under these options, drawing the
// synthetic weights from a stream seeded with Seed. Every path from a zoo
// spec to the runtime (cmd/deploy, the examples, Repository.Load) lowers
// through here, so a served model is bit-identical to a deployed one at
// the same seed.
func (o ModelOptions) Lower(spec *arch.Spec) (*graph.Model, error) {
	return graph.FromSpec(spec, rand.New(rand.NewSource(o.Seed)), graph.LowerOptions{
		WeightBits:    o.WeightBits,
		ActBits:       o.ActBits,
		AppendSoftmax: o.AppendSoftmax,
	})
}

// normalize folds the zero-value datatypes onto their defaults, mirroring
// graph.FromSpec — {0,0} and {8,8} lower to bit-identical models and must
// be one version identity.
func (o ModelOptions) normalize() ModelOptions {
	if o.WeightBits == 0 {
		o.WeightBits = 8
	}
	if o.ActBits == 0 {
		o.ActBits = 8
	}
	return o
}

// RepositoryConfig configures a Repository.
type RepositoryConfig struct {
	// RAMBudgetBytes bounds the summed planned arena bytes of every live
	// version (0 = unbudgeted). Set it to a device-class SRAM size (e.g.
	// 320 KB for the paper's medium MCU) to emulate that deployment target.
	RAMBudgetBytes int
	// PoolSize is the desired interpreter replicas per model (default 2).
	// Under a budget the actual pool may be smaller — never larger.
	PoolSize int
	// Deprecated: Batch is ignored; every row runs on its own pooled
	// interpreter.
	Batch BatcherConfig
	// Deprecated: Options is ignored; every load takes its lowering
	// options explicitly.
	Options ModelOptions
	// Logger receives lifecycle events (default slog.Default).
	Logger *slog.Logger
}

// BatcherConfig is the shape of the removed micro-batcher's settings,
// kept so callers that still fill Config.Batch or RepositoryConfig.Batch
// compile.
//
// Deprecated: nothing reads these fields; every row runs on its own
// pooled interpreter.
type BatcherConfig struct {
	MaxBatch int
	MaxDelay time.Duration
}

// ModelState is the lifecycle state of one model version.
type ModelState string

const (
	// StateLoading marks a version whose budget is reserved but whose pool
	// is still warming. It is never served.
	StateLoading ModelState = "LOADING"
	// StateReady marks the version currently serving the name.
	StateReady ModelState = "READY"
	// StateDraining marks a replaced or unloaded version finishing its
	// in-flight requests; its budget reservation is still held.
	StateDraining ModelState = "DRAINING"
	// StateUnloaded marks a fully retired version (terminal).
	StateUnloaded ModelState = "UNLOADED"
)

// ModelStatus is a point-in-time snapshot of one version, the row format
// of the /v2/repository/index admin endpoint.
type ModelStatus struct {
	Name    string     `json:"name"`
	Version int        `json:"version"`
	State   ModelState `json:"state"`
	Task    string     `json:"task,omitempty"`
	// PoolSize is the budget-planned serving capacity.
	PoolSize int `json:"pool_size"`
	// ArenaBytesPerReplica is tflm.PlanMemory(model).ArenaBytes — the
	// batch-1 arena one pooled replica adds in device RAM on top of the
	// shared weights.
	ArenaBytesPerReplica int `json:"arena_bytes_per_replica"`
	// SharedWeightBytes is the prepared kernel state (packed weight
	// panels, folded biases, prefix sums) shared read-only by every
	// replica — counted once per version, independent of PoolSize.
	SharedWeightBytes int `json:"shared_weight_bytes"`
	// PlannedRAMBytes = SharedWeightBytes + PoolSize × ArenaBytesPerReplica,
	// the version's reservation against the repository budget.
	PlannedRAMBytes int `json:"planned_ram_bytes"`
	// FlashBytes is the model's weights+graph flash footprint.
	FlashBytes int       `json:"flash_bytes"`
	LoadedAt   time.Time `json:"loaded_at,omitzero"`
}

// BudgetError rejects a load whose smallest configuration (one replica)
// does not fit the remaining RAM budget. The admin API renders it as a
// structured 409.
type BudgetError struct {
	Model string
	// NeededBytes is the shared prepared weights plus one replica's
	// arena — the minimum the load would reserve.
	NeededBytes int
	// BudgetBytes and PlannedBytes are the repository budget and what live
	// versions have already reserved against it.
	BudgetBytes  int
	PlannedBytes int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("serve: loading %s needs %d arena bytes but only %d of the %d-byte RAM budget is free",
		e.Model, e.NeededBytes, e.BudgetBytes-e.PlannedBytes, e.BudgetBytes)
}

// NotLoadedError reports an operation on a name with no serving version;
// the HTTP layer renders it as 404.
type NotLoadedError struct{ Model string }

func (e *NotLoadedError) Error() string {
	return fmt.Sprintf("serve: model %q not loaded", e.Model)
}

// ErrRepositoryClosed rejects loads after Close.
var ErrRepositoryClosed = errors.New("serve: repository closed")

// errStaleModel restarts a load whose per-name slot was deleted (by a
// concurrent unload completing) between lookup and reservation.
var errStaleModel = errors.New("serve: stale model slot")

// versionKey identifies what a version serves: the spec fingerprint (not
// just the name — a caller may rebuild a same-named spec with different
// blocks) plus the normalized lowering options.
type versionKey struct {
	fingerprint string
	opts        ModelOptions
}

// version is the one loaded-model type: one lifecycle of a name, holding
// the lowered graph, its interpreter pool and serving counters. Immutable
// after publication except for state (which Repository.mu guards) and the
// atomic counters.
type version struct {
	name string
	num  int
	key  versionKey // drives idempotent re-loads
	task string

	model *graph.Model
	pool  *Pool
	stats stats
	// spanAttrs is the read-only attribute map every traced request's
	// queue/invoke spans share, built once so tracing allocates no map
	// per request.
	spanAttrs map[string]string

	poolSize        int
	perReplicaArena int
	// arenaBytes is the host allocation of one pooled interpreter: the
	// planned activation arena plus the engine's im2col scratch.
	arenaBytes int
	// weightBytes is the prepared kernel state (packed panels, folded
	// biases, prefix sums) shared by every replica — paid once per version.
	weightBytes  int
	plannedBytes int
	flashBytes   int
	loadedAt     time.Time

	state ModelState // guarded by Repository.mu
	// inflight counts requests that acquired this version; retirement
	// waits for it so a draining version finishes everything it was
	// handed before its budget is released.
	inflight sync.WaitGroup
	// drained closes when the version is fully retired.
	drained chan struct{}
}

// repoModel is the per-name slot: one active version plus transients.
type repoModel struct {
	// loadMu serializes Load/Unload for the name; the data path never
	// takes it.
	loadMu   sync.Mutex
	active   *version   // guarded by Repository.mu
	loading  *version   // guarded by Repository.mu
	draining []*version // guarded by Repository.mu
	nextNum  int        // guarded by Repository.mu
}

// NewRepository returns an empty repository.
func NewRepository(cfg RepositoryConfig) *Repository {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 2
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Repository{cfg: cfg, models: make(map[string]*repoModel)}
}

// Lowerings returns how many graph lowerings the repository has performed;
// idempotent re-loads must not increase it.
func (r *Repository) Lowerings() uint64 { return r.lowerings.Load() }

// RAMBudgetBytes returns the configured budget (0 = unbudgeted).
func (r *Repository) RAMBudgetBytes() int { return r.cfg.RAMBudgetBytes }

// PlannedRAMBytes returns the bytes currently reserved by live versions.
func (r *Repository) PlannedRAMBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.planned
}

// FreeRAMBytes returns budget − planned: the bytes a new load could still
// reserve. Unbudgeted repositories return -1 (unbounded), never a
// negative difference — the fleet placer treats any negative value as
// "no budget pressure here".
func (r *Repository) FreeRAMBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.RAMBudgetBytes <= 0 {
		return -1
	}
	return r.cfg.RAMBudgetBytes - r.planned
}

// Load publishes spec as the serving version of spec.Name: lower, plan
// capacity against the budget, warm the pool, then blue/green swap. It
// returns the new (or, for an identical re-load, the existing) version's
// status. Loads for distinct names proceed in parallel; loads for one
// name serialize (single-flight: a concurrent identical load waits and
// returns the winner's version without re-lowering).
func (r *Repository) Load(spec *arch.Spec, opts ModelOptions) (ModelStatus, error) {
	if spec == nil || spec.Name == "" {
		return ModelStatus{}, errors.New("serve: load needs a named spec")
	}
	opts = opts.normalize()
	key := versionKey{fingerprint: spec.Fingerprint(), opts: opts}
	name := spec.Name

	// The lowering and prepared weights depend only on spec+opts, so a
	// stale-slot retry (the per-name slot deleted by a completing unload
	// mid-load) reuses them instead of re-lowering.
	var prep *tflm.Prepared
	// attempt runs the load against one per-name slot, holding its loadMu
	// throughout; errStaleModel reports the slot was deleted under it.
	attempt := func(m *repoModel) (ModelStatus, error) {
		m.loadMu.Lock()
		defer m.loadMu.Unlock()
		// Idempotent fast path, under the per-name lock so concurrent
		// identical loads single-flight: the loser blocks on loadMu and
		// finds the winner's version here instead of re-lowering.
		var st ModelStatus
		var err error
		r.mu.Lock()
		hit := false
		switch {
		case r.closed:
			err = ErrRepositoryClosed
		case r.models[name] != m:
			err = errStaleModel
		case m.active != nil && m.active.key == key:
			st, hit = statusLocked(m.active), true
		}
		r.mu.Unlock()
		if hit || err != nil {
			return st, err
		}

		// The expensive part runs under loadMu only: the data path and
		// other names stay unblocked while this name lowers and plans.
		if prep == nil {
			r.lowerings.Add(1)
			gm, err := opts.Lower(spec)
			if err != nil {
				return st, fmt.Errorf("serve: load %s: %w", name, err)
			}
			// Prepare once: the packed weights are shared by every replica
			// of the version, and their size and the memory plan feed the
			// budget reservation.
			if prep, err = tflm.Prepare(gm); err != nil {
				return st, fmt.Errorf("serve: load %s: %w", name, err)
			}
		}

		v, err := r.reserve(name, m, key, spec.Task, prep)
		if err != nil {
			return st, err
		}
		if v.pool, err = newPool(prep, v.poolSize); err != nil {
			r.release(name, m, v)
			return st, fmt.Errorf("serve: load %s: %w", name, err)
		}

		// Blue/green swap: publish only the fully built version, retire
		// the one it replaces.
		r.mu.Lock()
		v.loadedAt = time.Now()
		if r.closed {
			r.mu.Unlock()
			r.release(name, m, v)
			return st, ErrRepositoryClosed
		}
		old := m.active
		m.active = v
		m.loading = nil
		v.state = StateReady
		if old != nil {
			old.state = StateDraining
			m.draining = append(m.draining, old)
		}
		st = statusLocked(v)
		r.mu.Unlock()
		if old != nil {
			go r.retire(name, m, old)
		}
		r.cfg.Logger.Info("model loaded", "model", name, "version", v.num,
			"pool_size", v.poolSize, "planned_ram_bytes", v.plannedBytes, "swapped", old != nil)
		return st, nil
	}
	for {
		st, err := attempt(r.modelFor(name))
		if !errors.Is(err, errStaleModel) {
			return st, err
		}
	}
}

// LoadZoo loads a model of the zoo's fixed catalogue by name under opts.
// A spec from outside the catalogue (a search export) goes through Load.
func (r *Repository) LoadZoo(name string, opts ModelOptions) (ModelStatus, error) {
	spec, err := zoo.Spec(name)
	if err != nil {
		return ModelStatus{}, err
	}
	return r.Load(spec, opts)
}

// Unload drains the active version of a name and retires it. The call
// returns as soon as the version is DRAINING; in-flight requests finish
// before its arenas are released.
func (r *Repository) Unload(name string) error {
	r.mu.Lock()
	m := r.models[name]
	r.mu.Unlock()
	if m == nil {
		return &NotLoadedError{Model: name}
	}
	r.guardMu.RLock()
	guard := r.unloadGuard
	r.guardMu.RUnlock()
	if guard != nil {
		if err := guard(name); err != nil {
			return err
		}
	}
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	r.mu.Lock()
	v := m.active
	if v == nil {
		r.mu.Unlock()
		return &NotLoadedError{Model: name}
	}
	m.active = nil
	v.state = StateDraining
	m.draining = append(m.draining, v)
	r.mu.Unlock()
	go r.retire(name, m, v)
	r.cfg.Logger.Info("model unloading", "model", name, "version", v.num)
	return nil
}

// Index returns a status row for every live version — active, still
// warming, and draining — sorted by name then newest version first. This
// is the payload of GET /v2/repository/index.
func (r *Repository) Index() []ModelStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []ModelStatus
	for _, m := range r.models {
		if m.loading != nil {
			out = append(out, statusLocked(m.loading))
		}
		if m.active != nil {
			out = append(out, statusLocked(m.active))
		}
		for _, d := range m.draining {
			out = append(out, statusLocked(d))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version > out[j].Version
	})
	return out
}

// Infer runs one quantized input row through the serving version of a
// name. The version is pinned for the duration of the call, so a
// concurrent swap or unload drains only after the row is answered.
func (r *Repository) Infer(ctx context.Context, name string, row []int8) ([]int8, error) {
	v, err := r.acquire(name)
	if err != nil {
		return nil, err
	}
	defer v.release()
	out := make([]int8, v.model.Tensors[v.model.Output].Elems())
	if err := v.infer(ctx, row, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Close drains every version and rejects further loads. It blocks until
// all in-flight work has finished.
func (r *Repository) Close() {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		var draining []*version
		for name, m := range r.models {
			if v := m.active; v != nil {
				m.active = nil
				v.state = StateDraining
				m.draining = append(m.draining, v)
				go r.retire(name, m, v)
			}
			draining = append(draining, m.draining...)
		}
		r.mu.Unlock()
		for _, v := range draining {
			<-v.drained
		}
	})
}

// ---- internals ----

// modelFor returns (creating if needed) the per-name slot.
func (r *Repository) modelFor(name string) *repoModel {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[name]
	if m == nil {
		m = &repoModel{}
		r.models[name] = m
	}
	return m
}

// reserve plans capacity for a load and reserves its budget, publishing a
// LOADING version. Caller holds m.loadMu (so the active version cannot
// have changed since load's fast path, short of a Close).
func (r *Repository) reserve(name string, m *repoModel, key versionKey, task string, prep *tflm.Prepared) (*version, error) {
	weightBytes, plan := prep.WeightBytes(), prep.Plan()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrRepositoryClosed
	}
	if r.models[name] != m {
		return nil, errStaleModel
	}
	pool, err := r.pickPoolLocked(name, weightBytes, plan.ArenaBytes)
	if err != nil {
		return nil, err
	}
	m.nextNum++
	v := &version{
		name:            name,
		num:             m.nextNum,
		key:             key,
		task:            task,
		model:           prep.Model(),
		spanAttrs:       map[string]string{"model": name},
		poolSize:        pool,
		perReplicaArena: plan.ArenaBytes,
		arenaBytes:      prep.ArenaBytes(),
		weightBytes:     weightBytes,
		plannedBytes:    weightBytes + pool*plan.ArenaBytes,
		flashBytes:      prep.Model().FlashBytes(),
		state:           StateLoading,
		drained:         make(chan struct{}),
	}
	r.planned += v.plannedBytes
	m.loading = v
	return v, nil
}

// pickPoolLocked sizes a load against the remaining budget: the shared
// prepared weights are charged once off the top, then as many replica
// arenas as still fit, capped at the desired PoolSize. Unbudgeted
// repositories grant PoolSize as-is. Called with r.mu held.
func (r *Repository) pickPoolLocked(name string, weightBytes, arenaBytes int) (int, error) {
	if r.cfg.RAMBudgetBytes <= 0 {
		return r.cfg.PoolSize, nil
	}
	fit := (r.cfg.RAMBudgetBytes - r.planned - weightBytes) / arenaBytes
	if fit < 1 {
		return 0, &BudgetError{
			Model:        name,
			NeededBytes:  weightBytes + arenaBytes,
			BudgetBytes:  r.cfg.RAMBudgetBytes,
			PlannedBytes: r.planned,
		}
	}
	return min(fit, r.cfg.PoolSize), nil
}

// release undoes a reservation whose build failed, dropping the slot if
// nothing else lives under the name.
func (r *Repository) release(name string, m *repoModel, v *version) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.planned -= v.plannedBytes
	if m.loading == v {
		m.loading = nil
	}
	r.dropIfEmptyLocked(name, m)
}

// retire finishes a draining version: wait out the requests that hold it,
// then release its budget.
func (r *Repository) retire(name string, m *repoModel, v *version) {
	v.inflight.Wait()
	r.mu.Lock()
	r.planned -= v.plannedBytes
	v.state = StateUnloaded
	for i, d := range m.draining {
		if d == v {
			m.draining = append(m.draining[:i], m.draining[i+1:]...)
			break
		}
	}
	r.dropIfEmptyLocked(name, m)
	r.mu.Unlock()
	close(v.drained)
}

// dropIfEmptyLocked removes the per-name slot once no version lives under
// it, so Index reflects unloads. Called with r.mu held.
func (r *Repository) dropIfEmptyLocked(name string, m *repoModel) {
	if m.active == nil && m.loading == nil && len(m.draining) == 0 && r.models[name] == m {
		delete(r.models, name)
	}
}

// acquire pins the serving version of a name: the caller must release it
// exactly once when the request is finished, and retirement of the
// version waits for that. Only READY versions are ever returned, so no
// caller can observe a half-loaded version.
func (r *Repository) acquire(name string) (*version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[name]
	if m == nil || m.active == nil {
		return nil, &NotLoadedError{Model: name}
	}
	m.active.inflight.Add(1)
	return m.active, nil
}

// release unpins a version returned by acquire.
func (v *version) release() { v.inflight.Done() }

// actives returns the serving versions sorted by name (for /metrics).
func (r *Repository) actives() []*version {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*version
	for _, m := range r.models {
		if m.active != nil {
			out = append(out, m.active)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// statusLocked snapshots a version. Callers hold Repository.mu.
func statusLocked(v *version) ModelStatus {
	return ModelStatus{
		Name:                 v.name,
		Version:              v.num,
		State:                v.state,
		Task:                 v.task,
		PoolSize:             v.poolSize,
		ArenaBytesPerReplica: v.perReplicaArena,
		SharedWeightBytes:    v.weightBytes,
		PlannedRAMBytes:      v.plannedBytes,
		FlashBytes:           v.flashBytes,
		LoadedAt:             v.loadedAt,
	}
}

// ParseRAMBudget parses a human-readable RAM budget — "320KB", "1MB",
// "512kb", or a plain byte count — into bytes. Empty and "0" mean
// unbudgeted; a size whose bytes overflow an int is refused. This is the
// parser behind `cmd/serve -ram-budget`.
func ParseRAMBudget(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "0" {
		return 0, nil
	}
	upper := strings.ToUpper(s)
	mult := 1
	switch {
	case strings.HasSuffix(upper, "MB"):
		mult, upper = 1<<20, strings.TrimSuffix(upper, "MB")
	case strings.HasSuffix(upper, "KB"):
		mult, upper = 1<<10, strings.TrimSuffix(upper, "KB")
	case strings.HasSuffix(upper, "B"):
		upper = strings.TrimSuffix(upper, "B")
	}
	n, err := strconv.Atoi(strings.TrimSpace(upper))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("serve: bad RAM budget %q (want e.g. 320KB, 1MB, or bytes)", s)
	}
	if n > math.MaxInt/mult {
		return 0, fmt.Errorf("serve: RAM budget %q overflows an int of bytes", s)
	}
	return n * mult, nil
}
