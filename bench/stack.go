package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"micronets/internal/mesh"
	"micronets/internal/serve"
	"micronets/internal/servegraph"
)

// quiet is the logger of every server and router: the default slog
// logger writes one stderr line per request, which would be measured as
// server time.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// traceHeader carries the request id that ties client, mesh and serve
// spans together; mesh forwards it and serve honours it.
const traceHeader = "X-Micronets-Trace-Id"

// stack is one cold-built serving system: replicas on loopback
// listeners, optionally fronted by a mesh router. front is where the
// generator sends.
type stack struct {
	servers   []*serve.Server
	replicas  []*httptest.Server
	router    *mesh.Router
	routerSrv *httptest.Server
	meshHTTP  *http.Transport
	front     string
}

// buildStack boots the whole system a workload is served by, as
// cmd/serve and cmd/router do by default: every replica loads the full
// servable catalogue with pool 2, batch 8, 2 ms window. tr, when set,
// wraps each serve and mesh handler with the harness's span middleware.
func buildStack(s servingSpec, graphSpec *servegraph.Spec, tr *tracer) (*stack, error) {
	st := &stack{}
	var urls []string
	serveParent := "client"
	if s.router {
		serveParent = "mesh"
	}
	for i := 0; i < s.replicas; i++ {
		srv, err := serve.New(serve.Config{
			Options: serveOptions, PoolSize: 2, Logger: quiet,
			Batch: serve.BatcherConfig{MaxBatch: 8, MaxDelay: 2 * time.Millisecond},
		})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("booting replica %d: %w", i, err)
		}
		st.servers = append(st.servers, srv)
		if graphSpec != nil {
			if _, err := srv.Graphs().Put(graphSpec); err != nil {
				st.close()
				return nil, fmt.Errorf("registering graph %s: %w", graphSpec.Name, err)
			}
		}
		ts := httptest.NewServer(tr.wrap("serve", serveParent, srv.Handler()))
		st.replicas = append(st.replicas, ts)
		urls = append(urls, ts.URL)
	}
	st.front = urls[0]
	if s.router {
		// The router's own clients keep net/http's defaults, as cmd/router's
		// do, but on a transport this stack owns and can shut.
		st.meshHTTP = http.DefaultTransport.(*http.Transport).Clone()
		rt, err := mesh.New(mesh.Config{
			Replicas: urls, Logger: quiet,
			Client:       &http.Client{Transport: st.meshHTTP},
			HealthClient: &http.Client{Transport: st.meshHTTP, Timeout: 2 * time.Second},
		})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("building router: %w", err)
		}
		st.router = rt
		st.routerSrv = httptest.NewServer(tr.wrap("mesh", "client", rt.Handler()))
		st.front = st.routerSrv.URL
	}
	return st, nil
}

// close tears the stack down front to back and waits for it.
func (st *stack) close() {
	if st.routerSrv != nil {
		st.routerSrv.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	if st.meshHTTP != nil {
		st.meshHTTP.CloseIdleConnections()
	}
	for _, ts := range st.replicas {
		ts.Close()
	}
	for _, srv := range st.servers {
		srv.Close()
	}
}

// newClient is the generator's one shared client: keep-alive, enough
// idle connections for every request in flight, no per-request dials.
func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxIdleConns: 64, MaxIdleConnsPerHost: 32,
		IdleConnTimeout: time.Minute, DisableCompression: true,
	}
	return &http.Client{Transport: tr}, tr
}

// post sends one pre-encoded body and reads the whole reply.
func post(client *http.Client, url string, body []byte, traceID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(traceHeader, traceID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// Metric families are assembled from parts: a full name in one literal
// would register this package as a second emitter of the family with
// microvet's metricname analyzer.
const promNamespace = "micronets"

func serveFamily(name string) string { return promNamespace + "_serve_" + name }
func meshFamily(name string) string  { return promNamespace + "_mesh_" + name }

// scrape renders a handler's /metrics page and returns every sample,
// keyed by its full series text (`family{labels}`).
func scrape(h http.Handler) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", rec.Code)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed sample %q: %w", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, nil
}

// modelSeries names one model-labelled series of a serve family.
func modelSeries(family, model string) string {
	return fmt.Sprintf("%s{model=%q}", serveFamily(family), model)
}
