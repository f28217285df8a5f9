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
//	serve -watch-specs frontier.json        # hot-load cmd/search exports on change
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
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"micronets"
	"micronets/internal/serve"
	"micronets/internal/zoo"
)

func main() {
	addr := flag.String("addr", ":8151", "listen address")
	models := flag.String("models", "all", "comma-separated zoo models to load at boot, or 'all' for every servable model")
	specs := flag.String("specs", "", "comma-separated spec files (cmd/search -export output) to register into the zoo before loading")
	watchSpecs := flag.String("watch-specs", "", "comma-separated spec files or directories to poll and hot-load on change")
	watchInterval := flag.Duration("watch-interval", 2*time.Second, "poll interval for -watch-specs")
	ramBudget := flag.String("ram-budget", "0", "RAM budget for planned arenas across all models (e.g. 320KB to emulate DeviceM; 0 = unbudgeted)")
	noAdmin := flag.Bool("no-admin", false, "disable the /v2/repository and graph-mutation control-plane endpoints")
	pool := flag.Int("pool", 2, "desired interpreters per model (a RAM budget may scale this down)")
	weightBits := flag.Int("weight-bits", 8, "weight datatype (8, or 4 for emulated sub-byte kernels)")
	actBits := flag.Int("act-bits", 8, "activation datatype (8 only for serving; 4-bit activations are a memory/latency emulation the runtime cannot execute)")
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

	// Register searched architectures first so "all" (and explicit -models
	// lists) can include freshly exported frontier winners.
	for _, path := range splitList(*specs) {
		loaded, err := zoo.RegisterSpecFile(path)
		if err != nil {
			logger.Error("loading spec file failed", "path", path, "err", err)
			os.Exit(1)
		}
		logger.Info("registered searched models", "path", path, "models", len(loaded))
	}

	// Resolve "all" here, not in the server: the spec watcher below may
	// load models into the repository before (or while) the server boots,
	// and the catalogue default must not depend on that race. A
	// catalogue-wide boot is best-effort under -ram-budget (unfittable
	// models are skipped with a warning); a curated -models list is not.
	names := splitList(*models)
	serveAll := *models == "all"
	if serveAll {
		names = zoo.ServableNames()
	}

	deploy := micronets.DeployOptions{
		WeightBits:    *weightBits,
		ActBits:       *actBits,
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

	// The server owns the repository; the spec watcher runs inside its
	// lifecycle, starting strictly after the boot loads so the curated
	// model set can never lose a budget race against a watched file.
	err = micronets.Serve(ctx, micronets.ServeOptions{
		Addr:           *addr,
		Models:         names,
		PoolSize:       *pool,
		RAMBudgetBytes: budgetBytes,
		SkipOverBudget: serveAll,
		DisableAdmin:   *noAdmin,
		WatchSpecs:     splitList(*watchSpecs),
		WatchInterval:  *watchInterval,
		Logger:         logger,
		Deploy:         deploy,
	})
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, exiting")
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
