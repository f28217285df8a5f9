// Package micronets is the public API of the MicroNets reproduction
// (Banbury et al., MLSys 2021): TinyML model architectures discovered with
// differentiable NAS under MCU memory and latency constraints, deployed
// through a TFLM-style int8 interpreter and evaluated on simulated
// commodity Cortex-M microcontrollers.
//
// The typical flow is:
//
//	spec, _ := micronets.Model("MicroNet-KWS-S")
//	dep, _ := micronets.Deploy(spec, micronets.DeviceS, micronets.DeployOptions{})
//	fmt.Println(dep.LatencySeconds, dep.EnergyMJ, dep.Report)
//
// Training, dataset synthesis, DNAS search and the experiment harness live
// in the internal packages and are exercised by the cmd/ tools and
// examples/.
package micronets

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"micronets/internal/arch"
	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/serve"
	"micronets/internal/tensor"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// Device size classes matching the paper's small/medium/large MCUs.
var (
	// DeviceS is the STM32F446RE (Cortex-M4, 128 KB SRAM, 512 KB flash).
	DeviceS = mcu.F446RE
	// DeviceM is the STM32F746ZG (Cortex-M7, 320 KB SRAM, 1 MB flash).
	DeviceM = mcu.F746ZG
	// DeviceL is the STM32F767ZI (Cortex-M7, 512 KB SRAM, 2 MB flash).
	DeviceL = mcu.F767ZI
)

// Model returns a named architecture from the zoo (see ModelNames).
func Model(name string) (*arch.Spec, error) {
	e, err := zoo.Get(name)
	if err != nil {
		return nil, err
	}
	if e.Spec == nil {
		return nil, fmt.Errorf("micronets: %s is a stats-only comparison point (no public architecture)", name)
	}
	return e.Spec, nil
}

// ModelNames lists every model in the zoo.
func ModelNames() []string { return zoo.Names() }

// DeployOptions selects how a spec is lowered, for Deploy, ClassifyBatch
// and the serving repository alike: WeightBits and ActBits pick the
// datatype (default 8; 4 enables the paper's emulated sub-byte kernels),
// Seed the synthetic weights used when no trained model is supplied, and
// AppendSoftmax adds the classifier softmax op.
type DeployOptions = serve.ModelOptions

// Deployment is the result of deploying a model on a device.
type Deployment struct {
	Spec   *arch.Spec
	Model  *graph.Model
	Device *mcu.Device
	Report *tflm.MemoryReport

	// LatencySeconds is the modeled end-to-end inference latency.
	LatencySeconds float64
	// ActivePowerMW is the board draw while inferring.
	ActivePowerMW float64
	// EnergyMJ is energy per inference in millijoules.
	EnergyMJ float64
	// Layers is the per-op latency breakdown.
	Layers []mcu.LayerLatency
	// FitsErr is non-nil when the model does not fit the device.
	FitsErr error
}

// Deploy lowers a spec to the int8 runtime, plans its memory, checks it
// against the device budgets, and models latency and energy. A non-fitting
// model still returns a Deployment (with FitsErr set) so callers can report
// "not deployable" rows as the paper's tables do; models using unsupported
// operators return an error.
func Deploy(spec *arch.Spec, dev *mcu.Device, opts DeployOptions) (*Deployment, error) {
	m, err := opts.Lower(spec)
	if err != nil {
		return nil, err
	}
	return DeployModel(spec, m, dev)
}

// DeployModel deploys an already-lowered model (e.g. a trained export).
func DeployModel(spec *arch.Spec, m *graph.Model, dev *mcu.Device) (*Deployment, error) {
	report, err := tflm.Report(m, nil)
	if err != nil {
		return nil, err
	}
	lat, layers, err := mcu.ModelLatency(m, dev)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Spec: spec, Model: m, Device: dev, Report: report,
		LatencySeconds: lat,
		ActivePowerMW:  mcu.ActivePowerMW(m, dev),
		EnergyMJ:       mcu.EnergyPerInferenceMJ(m, dev),
		Layers:         layers,
	}
	d.FitsErr = report.FitsDevice(dev.SRAMBytes(), dev.FlashBytes())
	for _, op := range m.Ops {
		if op.Kind == graph.OpTransposedConv {
			// Join rather than overwrite: a model can both overflow the
			// device and use an unsupported operator, and callers deserve
			// to see every reason it is not deployable.
			d.FitsErr = errors.Join(d.FitsErr,
				fmt.Errorf("micronets: %s uses %s, unsupported by the runtime", m.Name, op.Kind))
			break
		}
	}
	return d, nil
}

// classifyCache holds the prepared state (lowered graph, memory plan,
// packed weights) of the specs ClassifyBatch has seen, keyed by spec
// fingerprint + options, so search and characterization loops that
// re-classify one spec pay lowering and planning once. It is bounded so a
// DNAS search sweeping thousands of distinct candidates cannot grow
// memory without bound: at the bound an arbitrary entry makes room.
var (
	classifyMu    sync.Mutex
	classifyCache = map[string]*tflm.Prepared{} // guarded by classifyMu
)

const classifyCacheMax = 32

// ClassifyBatch runs every input through an interpreter for the spec —
// the batched analogue of Interpreter.Classify for search,
// characterization and benchmark loops. The lowered graph, its memory
// plan and packed weights are cached process-wide by spec and options,
// so repeat calls for the same model pay neither lowering nor planning
// again; each call runs on its own interpreter over that shared state,
// so concurrent callers never serialize. It returns the argmax class and
// dequantized top score per input.
func ClassifyBatch(spec *arch.Spec, opts DeployOptions, xs []*tensor.Tensor) ([]int, []float32, error) {
	key := fmt.Sprintf("%s|%+v", spec.Fingerprint(), opts)
	classifyMu.Lock()
	prep := classifyCache[key]
	classifyMu.Unlock()
	if prep == nil {
		m, err := opts.Lower(spec)
		if err != nil {
			return nil, nil, err
		}
		if prep, err = tflm.Prepare(m); err != nil {
			return nil, nil, err
		}
		classifyMu.Lock()
		if len(classifyCache) >= classifyCacheMax {
			for k := range classifyCache {
				delete(classifyCache, k)
				break
			}
		}
		classifyCache[key] = prep
		classifyMu.Unlock()
	}
	ip, err := prep.NewInterpreter(0)
	if err != nil {
		return nil, nil, err
	}
	return ip.ClassifyBatch(xs)
}

// ClassifyModelBatch is ClassifyBatch for an already-lowered model (e.g.
// a trained export).
func ClassifyModelBatch(m *graph.Model, xs []*tensor.Tensor) ([]int, []float32, error) {
	ip, err := tflm.NewInterpreter(m, 0)
	if err != nil {
		return nil, nil, err
	}
	return ip.ClassifyBatch(xs)
}

// ---- model repository: the serving control plane ----

// ModelStatus is a snapshot of one model version in a Repository: name,
// version number, lifecycle state, and the budget-planned capacity
// (pool size, arena reservation). It is also the row format of the GET
// /v2/repository/index admin endpoint.
type ModelStatus = serve.ModelStatus

// Model lifecycle states (see serve.ModelState).
const (
	StateLoading  = serve.StateLoading
	StateReady    = serve.StateReady
	StateDraining = serve.StateDraining
	StateUnloaded = serve.StateUnloaded
)

// RepositoryOptions configures NewRepository.
type RepositoryOptions struct {
	// RAMBudgetBytes bounds the summed planned arena bytes across every
	// loaded model version (0 = unbudgeted). Set it to a device-class
	// SRAM size — e.g. 320*1024 to emulate DeviceM — and the repository
	// sizes each model's pool from what fits, rejecting loads that would
	// not (serve.BudgetError).
	RAMBudgetBytes int
	// PoolSize is the desired interpreter replicas per model (default 2);
	// a budget may scale it down per model, never up.
	PoolSize int
	// Logger receives lifecycle events.
	Logger *slog.Logger
	// Deploy is the default lowering for LoadModel/LoadSpecFile/Watch.
	Deploy DeployOptions
}

// Repository is the versioned model store behind the serving API: it
// owns load/unload/swap lifecycles, keyed by spec fingerprint + quant
// options, with blue/green version swaps (the old version drains only
// after the new one is ready) and RAM-budgeted capacity planning via
// tflm.PlanMemory. Pass one to ServeOptions.Repository to drive a
// live server programmatically, or let Serve build its own and drive it
// over the /v2/repository admin endpoints.
type Repository struct{ inner *serve.Repository }

// NewRepository returns an empty repository.
func NewRepository(opts RepositoryOptions) *Repository {
	return &Repository{inner: serve.NewRepository(serve.RepositoryConfig{
		RAMBudgetBytes: opts.RAMBudgetBytes,
		PoolSize:       opts.PoolSize,
		Options:        opts.Deploy,
		Logger:         opts.Logger,
	})}
}

// Load publishes spec as the serving version of spec.Name — lowering,
// budget planning, pool warm-up, then a blue/green swap if an older
// version was serving. Re-loading an identical spec+options is an
// idempotent no-op. An over-budget load fails with *serve.BudgetError.
func (r *Repository) Load(spec *arch.Spec, opts DeployOptions) (ModelStatus, error) {
	return r.inner.Load(spec, opts)
}

// LoadModel is Load for a zoo catalogue name (including search exports
// registered at runtime).
func (r *Repository) LoadModel(name string, opts DeployOptions) (ModelStatus, error) {
	return r.inner.LoadZoo(name, opts)
}

// LoadSpecFile registers a cmd/search -export file into the zoo and
// loads every spec in it — the restartless -specs.
func (r *Repository) LoadSpecFile(path string, opts DeployOptions) ([]ModelStatus, error) {
	return r.inner.LoadSpecFile(path, opts)
}

// Swap is Load restricted to names already serving: an explicit
// redeploy, failing with *serve.NotLoadedError otherwise.
func (r *Repository) Swap(spec *arch.Spec, opts DeployOptions) (ModelStatus, error) {
	return r.inner.Swap(spec, opts)
}

// Unload drains the serving version of a name and retires it; in-flight
// inferences finish first.
func (r *Repository) Unload(name string) error { return r.inner.Unload(name) }

// Index reports every live version (READY, LOADING, DRAINING), sorted by
// name then newest first.
func (r *Repository) Index() []ModelStatus { return r.inner.Index() }

// Watch polls spec files (or directories of *.json spec files) and
// hot-loads new or changed exports until ctx is done — run it in a
// goroutine next to Serve to make `cmd/search -export` output servable
// with zero restarts.
func (r *Repository) Watch(ctx context.Context, paths []string, interval time.Duration, opts DeployOptions) {
	r.inner.WatchSpecs(ctx, paths, interval, opts)
}

// Close drains every model version and rejects further loads.
func (r *Repository) Close() { r.inner.Close() }

// ServeOptions configures the HTTP inference server (see internal/serve
// for the subsystem: model repository → interpreter pools → Invoke →
// kernels engine).
type ServeOptions struct {
	// Addr is the listen address (default ":8151").
	Addr string
	// Repository, when set, is the control plane the server serves from
	// — the caller keeps its lifecycle and may Load/Unload concurrently
	// with live traffic. When nil the server builds and owns one.
	Repository *Repository
	// Models are zoo names to load at boot; empty serves every
	// runtime-servable catalogue model (when the repository starts
	// empty), skipping models that exceed the RAM budget.
	Models []string
	// PoolSize is the desired interpreter replicas per model (default 2).
	PoolSize int
	// RAMBudgetBytes bounds summed planned arena bytes across all loaded
	// models (0 = unbudgeted). Ignored when Repository is set.
	RAMBudgetBytes int
	// SkipOverBudget makes the boot Models list best-effort under a RAM
	// budget: models that cannot fit are skipped with a warning instead
	// of failing startup. Set for catalogue-wide boots.
	SkipOverBudget bool
	// DisableAdmin turns off the /v2/repository endpoints, freezing the
	// model set at the boot list.
	DisableAdmin bool
	// WatchSpecs lists spec files or directories of *.json spec files to
	// poll and hot-load on change; the watcher starts after the boot
	// loads (so it never races them for budget) and stops with the
	// server. WatchInterval defaults to 2s.
	WatchSpecs    []string
	WatchInterval time.Duration
	// Logger receives one structured line per request.
	Logger *slog.Logger
	// Deploy selects the default lowering (bits, seed, softmax).
	Deploy DeployOptions
}

func (o ServeOptions) config() serve.Config {
	cfg := serve.Config{
		Models:         o.Models,
		Options:        o.Deploy,
		PoolSize:       o.PoolSize,
		RAMBudgetBytes: o.RAMBudgetBytes,
		SkipOverBudget: o.SkipOverBudget,
		DisableAdmin:   o.DisableAdmin,
		WatchSpecs:     o.WatchSpecs,
		WatchInterval:  o.WatchInterval,
		Logger:         o.Logger,
	}
	if o.Repository != nil {
		cfg.Repository = o.Repository.inner
	}
	return cfg
}

// Serve loads the requested models into the repository and serves the
// KServe-v2-style inference protocol (/v2/health/*, /v2/models,
// /v2/models/{name}/infer, /metrics) plus the /v2/repository admin
// control plane until ctx is cancelled, then drains gracefully. This is
// the long-lived serving path behind cmd/serve, and a thin shim over the
// Repository lifecycle API.
func Serve(ctx context.Context, opts ServeOptions) error {
	srv, err := serve.New(opts.config())
	if err != nil {
		return err
	}
	addr := opts.Addr
	if addr == "" {
		addr = ":8151"
	}
	return srv.ListenAndServe(ctx, addr)
}

// ServeHandler returns the fully warmed inference handler without binding
// a listener — for embedding the serving surface into an existing HTTP
// server or tests. Like Serve it is a shim over the Repository control
// plane. The caller owns the returned server's lifecycle; call its Close
// to drain. WatchSpecs is rejected here: the watcher needs a serving
// lifecycle to stop with, so embedders run Repository.Watch themselves
// on a context they own.
func ServeHandler(opts ServeOptions) (http.Handler, *serve.Server, error) {
	if len(opts.WatchSpecs) > 0 {
		return nil, nil, errors.New("micronets: ServeHandler does not run the spec watcher; use Serve, or run Repository.Watch on your own context")
	}
	srv, err := serve.New(opts.config())
	if err != nil {
		return nil, nil, err
	}
	return srv.Handler(), srv, nil
}

// Paper returns the published Table 4/2/3 numbers for a model, for
// side-by-side comparison with simulated measurements.
func Paper(name string) (zoo.PaperStats, error) {
	e, err := zoo.Get(name)
	if err != nil {
		return zoo.PaperStats{}, err
	}
	return e.Paper, nil
}
