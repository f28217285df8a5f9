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
	"fmt"
	"log/slog"
	"net/http"

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

// Deployment is one model measured on one device: its memory report,
// modeled latency, power and energy, per-op latency breakdown, and
// FitsErr when it does not deploy (see mcu.Deploy).
type Deployment = mcu.Deployment

// Deploy lowers a spec to the int8 runtime and measures it on the device
// (mcu.Deploy). A model that does not fit, or uses an operator the
// runtime cannot run, still returns a Deployment with FitsErr set, so
// callers can report "not deployable" rows as the paper's tables do.
func Deploy(spec *arch.Spec, dev *mcu.Device, opts DeployOptions) (*Deployment, error) {
	m, err := opts.Lower(spec)
	if err != nil {
		return nil, err
	}
	return mcu.Deploy(m, dev)
}

// DeployModel measures an already-lowered model (e.g. a trained export)
// on the device.
func DeployModel(m *graph.Model, dev *mcu.Device) (*Deployment, error) {
	return mcu.Deploy(m, dev)
}

// ClassifyBatch runs every input through an interpreter for the spec —
// the batched analogue of Interpreter.Classify for search,
// characterization and benchmark loops. Each call lowers the spec under
// opts and runs ClassifyModelBatch on the result. It returns the argmax
// class and dequantized top score per input.
func ClassifyBatch(spec *arch.Spec, opts DeployOptions, xs []*tensor.Tensor) ([]int, []float32, error) {
	m, err := opts.Lower(spec)
	if err != nil {
		return nil, nil, err
	}
	return ClassifyModelBatch(m, xs)
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

// ---- serving ----

// ModelStatus is a snapshot of one model version in a server's
// repository: name, version number, lifecycle state, and the
// budget-planned capacity (pool size, arena reservation). It is also the
// row format of the GET /v2/repository/index admin endpoint.
type ModelStatus = serve.ModelStatus

// Model lifecycle states (see serve.ModelState).
const (
	StateLoading  = serve.StateLoading
	StateReady    = serve.StateReady
	StateDraining = serve.StateDraining
	StateUnloaded = serve.StateUnloaded
)

// ServeOptions configures the HTTP inference server (see internal/serve
// for the subsystem: model repository → interpreter pools → Invoke →
// kernels engine).
type ServeOptions struct {
	// Addr is the listen address (default ":8151").
	Addr string
	// Models are zoo names to load at boot; any of them failing to load
	// fails startup. Nil serves every runtime-servable catalogue model,
	// skipping those that exceed the RAM budget; a non-nil empty list
	// boots with no models.
	Models []string
	// PoolSize is the desired interpreter replicas per model (default 2).
	PoolSize int
	// RAMBudgetBytes bounds summed planned arena bytes across all loaded
	// models (0 = unbudgeted).
	RAMBudgetBytes int
	// DisableAdmin turns off the /v2/repository endpoints, freezing the
	// model set at the boot list.
	DisableAdmin bool
	// Logger receives one structured line per request.
	Logger *slog.Logger
	// Deploy selects the default lowering (bits, seed, softmax).
	Deploy DeployOptions
}

func (o ServeOptions) config() serve.Config {
	return serve.Config{
		Models:         o.Models,
		Options:        o.Deploy,
		PoolSize:       o.PoolSize,
		RAMBudgetBytes: o.RAMBudgetBytes,
		DisableAdmin:   o.DisableAdmin,
		Logger:         o.Logger,
	}
}

// Serve loads the requested models and serves the KServe-v2-style
// inference protocol (/v2/health/*, /v2/models, /v2/models/{name}/infer,
// /metrics) plus the /v2/repository admin control plane until ctx is
// cancelled, then drains gracefully. This is the long-lived serving path
// behind cmd/serve.
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
// server or tests. The returned server owns its repository: drive model
// lifecycles from Go through srv.Repository() (Load, LoadZoo, Swap,
// Unload, Index) next to the HTTP admin surface, and call srv.Close to
// drain.
func ServeHandler(opts ServeOptions) (http.Handler, *serve.Server, error) {
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
