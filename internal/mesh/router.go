package mesh

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"micronets/internal/obs"
)

// Config configures a Router.
type Config struct {
	// Replicas are the backend cmd/serve base URLs (e.g.
	// "http://10.0.0.5:8151"). At least one is required.
	Replicas []string
	// HealthInterval is the period of the health/fleet-view poll
	// (default 1s).
	HealthInterval time.Duration
	// DownAfter marks a replica down after that many consecutive failed
	// ready probes (default 2); UpAfter marks it back up after that many
	// consecutive successes (default 1).
	DownAfter int
	UpAfter   int
	// MaxAttempts caps how many candidates one data-plane request may
	// try (default 3); placement walks every up candidate. See the
	// package doc's retry rule.
	MaxAttempts int
	// RetryBackoff is the pause after the first failed attempt of a
	// walk, doubling per failure and capped at 1s (default 25ms). See
	// the package doc's retry rule for which outcomes back off.
	RetryBackoff time.Duration
	// VirtualNodes is the consistent-hash ring density (default 128).
	VirtualNodes int
	// Client issues proxied requests (default: http.Transport defaults,
	// no overall timeout so long infers are not cut off). HealthClient
	// issues probes (default 2s timeout).
	Client       *http.Client
	HealthClient *http.Client
	// Logger receives one structured line per proxied request (default
	// slog.Default).
	Logger *slog.Logger
}

func (c *Config) fill() error {
	if len(c.Replicas) == 0 {
		return errors.New("mesh: at least one replica is required")
	}
	seen := map[string]bool{}
	for _, u := range c.Replicas {
		if u == "" {
			return errors.New("mesh: empty replica URL")
		}
		if seen[u] {
			return fmt.Errorf("mesh: duplicate replica %s", u)
		}
		seen[u] = true
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 2
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.HealthClient == nil {
		c.HealthClient = &http.Client{Timeout: 2 * time.Second}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return nil
}

// Router is the fleet front door: it health-checks its replicas, places
// admin loads by consistent-hash affinity with budget spill, and
// proxies the /v2 data plane with retry-on-alternate-replica. Construct
// with New (which probes every replica once, synchronously, so the
// first request already routes), mount Handler, Close to stop the
// health loop.
type Router struct {
	cfg      Config
	ring     *Ring
	replicas []*replica // fixed set, Config.Replicas order
	byURL    map[string]*replica
	mux      *http.ServeMux
	log      *slog.Logger
	start    time.Time

	retries    atomic.Uint64 // attempts moved to an alternate replica
	placeFails atomic.Uint64 // placements no replica could take

	stopHealth context.CancelFunc
	healthDone chan struct{}
	closeOnce  sync.Once
}

// New builds the router, probes every replica once (a dead replica at
// boot is marked down, not fatal), and starts the health loop.
func New(cfg Config) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:   cfg,
		ring:  NewRing(cfg.VirtualNodes, cfg.Replicas...),
		byURL: make(map[string]*replica, len(cfg.Replicas)),
		log:   cfg.Logger,
		start: time.Now(),
	}
	for _, u := range cfg.Replicas {
		rep := newReplica(u)
		rt.replicas = append(rt.replicas, rep)
		rt.byURL[rep.url] = rep
	}
	// First round synchronously, with UpAfter forced to 1: a healthy
	// fleet serves from the first request instead of after UpAfter
	// polls.
	rt.probeAll(1)

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /v2/health/live", rt.handleLive)
	rt.mux.HandleFunc("GET /v2/health/ready", rt.handleReady)
	rt.mux.HandleFunc("GET /v2/models", rt.handleModels)
	rt.mux.HandleFunc("GET /v2/models/{name}", rt.handleModelProxy)
	rt.mux.HandleFunc("GET /v2/models/{name}/profile", rt.handleModelProxy)
	rt.mux.HandleFunc("POST /v2/models/{name}/infer", rt.handleModelProxy)
	rt.mux.HandleFunc("GET /v2/graphs", rt.handleGraphList)
	rt.mux.HandleFunc("GET /v2/graphs/{name}", rt.handleGraphProxy)
	rt.mux.HandleFunc("POST /v2/graphs/{name}/infer", rt.handleGraphProxy)
	rt.mux.HandleFunc("PUT /v2/graphs/{name}", rt.handleGraphPut)
	rt.mux.HandleFunc("DELETE /v2/graphs/{name}", rt.handleGraphDelete)
	rt.mux.HandleFunc("GET /v2/repository/index", rt.handleFleetIndex)
	rt.mux.HandleFunc("POST /v2/repository/models/{name}/load", rt.handleLoad)
	rt.mux.HandleFunc("POST /v2/repository/models/{name}/unload", rt.handleUnload)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)

	ctx, cancel := context.WithCancel(context.Background())
	rt.stopHealth = cancel
	rt.healthDone = make(chan struct{})
	go rt.healthLoop(ctx)
	return rt, nil
}

// Handler returns the routed handler wrapped in request logging.
func (rt *Router) Handler() http.Handler { return rt.logMiddleware(rt.mux) }

// Close stops the health loop. In-flight proxied requests finish.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		rt.stopHealth()
		<-rt.healthDone
	})
}

// ListenAndServe serves on addr until ctx is cancelled.
func (rt *Router) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	rt.log.Info("mesh router serving", "addr", ln.Addr().String(),
		"replicas", len(rt.replicas), "replicas_up", rt.upCount())
	select {
	case err := <-errc:
		rt.Close()
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = hs.Shutdown(shutCtx)
	rt.Close()
	return err
}

// healthLoop re-probes every replica each HealthInterval.
func (rt *Router) healthLoop(ctx context.Context) {
	defer close(rt.healthDone)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.probeAll(rt.cfg.UpAfter)
		}
	}
}

// probeAll probes every replica concurrently and logs health flips.
func (rt *Router) probeAll(upAfter int) {
	var wg sync.WaitGroup
	for _, rep := range rt.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			was := rep.up.Load()
			rep.probe(rt.cfg.HealthClient, rt.cfg.DownAfter, upAfter)
			if now := rep.up.Load(); now != was {
				rt.log.Info("replica health transition", "replica", rep.url, "up", now)
			}
		}(rep)
	}
	wg.Wait()
}

func (rt *Router) upCount() int {
	n := 0
	for _, rep := range rt.replicas {
		if rep.up.Load() {
			n++
		}
	}
	return n
}

// candidates returns the up replicas in the key's ring-affinity order,
// the ones whose fleet view holds the target first, and how many of
// those there are. Walks try holders and then fall through to the rest
// (the view may be stale); fan-outs touch cands[:holders] only.
func (rt *Router) candidates(key string, holds func(*replicaView) bool) (cands []*replica, holders int) {
	var rest []*replica
	for _, u := range rt.ring.Order(key) {
		rep := rt.byURL[u]
		if rep == nil || !rep.up.Load() {
			continue
		}
		if holds(rep.view.Load()) {
			cands = append(cands, rep)
		} else {
			rest = append(rest, rep)
		}
	}
	return append(cands, rest...), len(cands)
}

// holdsModel / holdsGraph are the candidates predicates for a name.
func holdsModel(name string) func(*replicaView) bool {
	return func(v *replicaView) bool { return v.models[name] }
}

func holdsGraph(name string) func(*replicaView) bool {
	return func(v *replicaView) bool { return v.graphs[name] }
}

// mergedModels is the fleet view behind GET /v2/models: the union of
// every up replica's READY models, deduplicated by name.
func (rt *Router) mergedModels() []map[string]any {
	seen := map[string]bool{}
	var out []map[string]any
	for _, rep := range rt.replicas {
		if !rep.up.Load() {
			continue
		}
		for _, row := range rep.view.Load().rows {
			name, _ := row["name"].(string)
			state, _ := row["state"].(string)
			if name == "" || state != "READY" || seen[name] {
				continue
			}
			seen[name] = true
			task, _ := row["task"].(string)
			version, _ := row["version"].(float64)
			out = append(out, map[string]any{
				"name": name, "task": task, "state": state, "version": int(version),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i]["name"].(string) < out[j]["name"].(string)
	})
	return out
}

// logMiddleware stamps every request with a trace ID and emits one
// structured line per request.
func (rt *Router) logMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID := obs.RequestTraceID(r)
		r.Header.Set("X-Micronets-Trace-Id", traceID)
		sw := &obs.StatusWriter{ResponseWriter: w}
		sw.Header().Set("X-Micronets-Trace-Id", traceID)
		start := time.Now()
		next.ServeHTTP(sw, r)
		rt.log.Info("mesh request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.Status(),
			"bytes", sw.Bytes,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"replica", sw.Header().Get("X-Micronets-Replica"),
			"trace", traceID,
		)
	})
}
