// Command serve runs the HTTP inference server: zoo models behind a
// KServe-v2-style JSON protocol with pre-warmed interpreter pools (every
// row one batch-1 invoke on a free interpreter) and a Triton-style
// model-repository control plane for hot load/unload with zero restarts.
//
// Usage:
//
//	serve                                   # serve every runtime-servable zoo model on :8151
//	serve -models MicroNet-KWS-S,DSCNN-S    # a subset
//	serve -pool 4                           # four interpreters per model
//	serve -ram-budget 320KB                 # emulate the medium MCU: pool sizes
//	                                        # planned from what fits; models over
//	                                        # budget skipped (boot) or 409'd (admin)
//	serve -specs frontier.json              # also serve cmd/search exports; push
//	                                        # later ones with cmd/search -publish
//	serve -specs f.json -models NAS-kws-S-017,DSCNN-S  # a file spec and a catalogue model
//	serve -no-admin                         # freeze the model and graph sets at boot
//	serve -debug-addr 127.0.0.1:6060        # net/http/pprof on a separate listener
//
// Endpoints:
//
//	GET  /v2/health/live | /v2/health/ready
//	GET  /v2/models | /v2/models/{name}
//	POST /v2/models/{name}/infer
//	GET  /v2/repository/index
//	POST /v2/repository/models/{name}/load | .../unload
//	GET  /v2/graphs | /v2/graphs/{name}
//	PUT  /v2/graphs/{name}        (register an inference graph)
//	DELETE /v2/graphs/{name}
//	POST /v2/graphs/{name}/infer  (route through cascades/ensembles/splits)
//	GET  /metrics
//
// SIGINT/SIGTERM triggers a graceful drain: readiness fails first, then
// in-flight requests finish before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"micronets/internal/arch"
	"micronets/internal/serve"
	"micronets/internal/zoo"
)

func main() {
	addr := flag.String("addr", ":8151", "listen address")
	models := flag.String("models", "all", "comma-separated models to load at boot, each a -specs spec or a zoo name, or 'all' for every servable zoo model and every -specs spec")
	specs := flag.String("specs", "", "comma-separated spec files (cmd/search -export output) whose specs this server may load at boot: all of them with -models all, or those -models names")
	ramBudget := flag.String("ram-budget", "0", "RAM budget for planned arenas across all models (e.g. 320KB to emulate DeviceM; 0 = unbudgeted)")
	noAdmin := flag.Bool("no-admin", false, "disable the /v2/repository and graph-mutation control-plane endpoints")
	pool := flag.Int("pool", 2, "desired interpreters per model (a RAM budget may scale this down)")
	weightBits := flag.Int("weight-bits", 8, "weight datatype (8, or 4 for emulated sub-byte kernels)")
	softmax := flag.Bool("softmax", true, "append the classifier softmax op")
	seed := flag.Int64("seed", 42, "synthetic-weight seed (equal seeds serve bit-identical models)")
	logFormat := flag.String("log", "text", "request log format: text or json")
	debugAddr := flag.String("debug-addr", "", "optional address for the net/http/pprof debug listener (e.g. 127.0.0.1:6060); empty disables")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logFormat == "json" {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	budgetBytes, err := serve.ParseRAMBudget(*ramBudget)
	if err != nil {
		logger.Error("bad -ram-budget", "err", err)
		os.Exit(1)
	}

	fileSpecs, err := readSpecFiles(splitList(*specs))
	if err != nil {
		logger.Error("loading spec files failed", "err", err)
		os.Exit(1)
	}
	// "all" is a nil list to the server: the whole catalogue, then every
	// file spec, best-effort under -ram-budget (unfittable models are
	// skipped with a warning). A curated -models list must load in full.
	var boot []string
	names := splitList(*models)
	bestEffort := *models == "all" || len(names) == 0
	if !bestEffort {
		boot, fileSpecs = resolve(names, fileSpecs)
	}

	deploy := serve.ModelOptions{
		WeightBits:    *weightBits,
		Seed:          *seed,
		AppendSoftmax: *softmax,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The pprof surface rides a separate listener on a fresh mux, so
	// profiling endpoints are never exposed on the serving address and die
	// with the process rather than the drain.
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof debug listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	srv, err := serve.New(serve.Config{
		Models:         boot,
		Options:        deploy,
		PoolSize:       *pool,
		RAMBudgetBytes: budgetBytes,
		DisableAdmin:   *noAdmin,
		Logger:         logger,
	})
	if err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	for _, spec := range fileSpecs {
		if _, err := srv.Repository().Load(spec, deploy); err != nil {
			var be *serve.BudgetError
			if bestEffort && errors.As(err, &be) {
				logger.Warn("skipping model over RAM budget", "model", spec.Name,
					"needed_bytes", be.NeededBytes, "budget_bytes", be.BudgetBytes,
					"planned_bytes", be.PlannedBytes)
				continue
			}
			srv.Close()
			logger.Error("loading a -specs model failed", "model", spec.Name, "err", err)
			os.Exit(1)
		}
	}
	err = srv.ListenAndServe(ctx, *addr)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, exiting")
}

// readSpecFiles reads every -specs file and returns their specs in file
// order. A spec may not take a catalogue model's name, and no two files
// may define one name: the error names both files.
func readSpecFiles(paths []string) ([]*arch.Spec, error) {
	var specs []*arch.Spec
	from := map[string]string{}
	for _, path := range paths {
		f, err := zoo.OpenSpecFile(path)
		if err != nil {
			return nil, err
		}
		for _, s := range f.Specs {
			if prev, dup := from[s.Name]; dup {
				return nil, fmt.Errorf("%s and %s both define %q", prev, path, s.Name)
			}
			from[s.Name] = path
			specs = append(specs, s)
		}
	}
	return specs, nil
}

// resolve splits a curated -models list: a name resolves to a file spec
// first and to the catalogue otherwise. It returns the catalogue names to
// boot (non-nil, so an all-file list boots no catalogue model) and the
// listed file specs, in list order.
func resolve(names []string, fileSpecs []*arch.Spec) (boot []string, listed []*arch.Spec) {
	byName := make(map[string]*arch.Spec, len(fileSpecs))
	for _, s := range fileSpecs {
		byName[s.Name] = s
	}
	boot = []string{}
	for _, n := range names {
		if s, ok := byName[n]; ok {
			listed = append(listed, s)
		} else {
			boot = append(boot, n)
		}
	}
	return boot, listed
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
