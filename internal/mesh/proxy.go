package mesh

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"micronets/internal/obs"
)

// meshError is the router's own error body, shape-compatible with the
// replicas' v2 error body.
type meshError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// maxBodyBytes bounds buffered request and response bodies. Bodies are
// buffered so an attempt can be replayed on an alternate replica. It is
// a var only so tests can lower it.
var maxBodyBytes int64 = 32 << 20

var errNoReplicas = errors.New("no replicas available")

// readBody buffers the request body (bounded) so an attempt can be
// replayed against an alternate replica. Returns false after writing
// the error response.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		return body, true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		obs.WriteJSON(w, http.StatusRequestEntityTooLarge, meshError{
			Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
	} else {
		obs.WriteJSON(w, http.StatusBadRequest, meshError{Error: "reading request body: " + err.Error()})
	}
	return nil, false
}

// answer is one replica's reply to one attempt, body fully buffered.
type answer struct {
	rep    *replica
	status int
	header http.Header
	body   []byte
	// final is set by walk: the replica's word is the answer. Unset on
	// the answer walk hands back when every candidate spilled or failed
	// (then it is the last spill).
	final bool
}

// attempt is the package's one transport primitive: it replays the
// buffered request against one replica and buffers the reply. The
// replica's request/error counters and latency histogram are updated
// here. A reply over maxBodyBytes is a failed attempt, never a
// truncated answer.
func (rt *Router) attempt(rep *replica, r *http.Request, body []byte) (answer, error) {
	url := rep.url + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	for _, h := range []string{"Content-Type", "X-Micronets-Trace", "X-Micronets-Trace-Id"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	start := time.Now()
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rep.errors.Add(1)
		return answer{}, err
	}
	defer drainClose(resp.Body)
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err == nil && int64(len(respBody)) > maxBodyBytes {
		err = fmt.Errorf("mesh: %s response exceeds %d bytes", rep.url, maxBodyBytes)
	}
	if err != nil {
		rep.errors.Add(1)
		return answer{}, err
	}
	rep.requests.Add(1)
	rep.hist.Observe(time.Since(start))
	return answer{rep: rep, status: resp.StatusCode, header: resp.Header, body: respBody}, nil
}

// walk is the package's one candidate loop, the rule the package doc
// states. It tries cands in order. A candidate that skip (optional)
// accepts is passed over without a request. A transport failure backs
// off — doubling, cut short by the request context, never after the
// last candidate — and moves on. An answer that spills accepts is
// remembered and the walk moves on at once; any other answer is final.
// Nothing is written: the caller gets the final answer, else the last
// spilled one, else the last transport error (errNoReplicas for an
// empty list), and owns the epilogue.
func (rt *Router) walk(r *http.Request, body []byte, cands []*replica,
	skip func(*replica) bool, spills func(answer) bool) (answer, error) {
	var lastSpill answer
	lastErr := errNoReplicas
	backoff := rt.cfg.RetryBackoff
	attempts := 0
	for i, rep := range cands {
		if skip != nil && skip(rep) {
			continue
		}
		if attempts > 0 {
			rt.retries.Add(1)
		}
		attempts++
		ans, err := rt.attempt(rep, r, body)
		if err != nil {
			lastErr = err
			if i == len(cands)-1 {
				break
			}
			select {
			case <-time.After(backoff):
			case <-r.Context().Done():
				return answer{}, r.Context().Err()
			}
			backoff = min(2*backoff, time.Second)
			continue
		}
		if !spills(ans) {
			ans.final = true
			return ans, nil
		}
		lastSpill = ans
	}
	if lastSpill.rep != nil {
		return lastSpill, nil
	}
	return answer{}, lastErr
}

// writeUnanswered reports a walk no replica answered.
func writeUnanswered(w http.ResponseWriter, err error) {
	if errors.Is(err, errNoReplicas) {
		obs.WriteJSON(w, http.StatusServiceUnavailable, meshError{Error: err.Error(), Code: "no_replicas"})
		return
	}
	obs.WriteJSON(w, http.StatusBadGateway, meshError{
		Error: fmt.Sprintf("all replicas failed: %v", err), Code: "replicas_unreachable"})
}

// writeProxied relays a replica's answer to the client, stamping which
// replica gave it.
func writeProxied(w http.ResponseWriter, ans answer) {
	if ct := ans.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	for k, vs := range ans.header {
		if strings.HasPrefix(k, "X-Micronets-") && k != "X-Micronets-Trace-Id" {
			w.Header()[k] = vs
		}
	}
	w.Header().Set("X-Micronets-Replica", ans.rep.url)
	w.WriteHeader(ans.status)
	_, _ = w.Write(ans.body) //microvet:ignore droppederr headers are already written; a write failure means the client hung up
}

// forward proxies one data-plane request: holders first, then the rest
// of the fleet in affinity order, capped at MaxAttempts. The routes are
// keyed by a name the fleet view may be stale about, so a 404 spills to
// the next candidate; any other answer is relayed as-is.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, holds func(*replicaView) bool) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	cands, _ := rt.candidates(key, holds)
	if len(cands) > rt.cfg.MaxAttempts {
		cands = cands[:rt.cfg.MaxAttempts]
	}
	ans, err := rt.walk(r, body, cands, nil,
		func(a answer) bool { return a.status == http.StatusNotFound })
	if err != nil {
		writeUnanswered(w, err)
		return
	}
	writeProxied(w, ans)
}

// handleModelProxy serves the per-model data plane (metadata, profile,
// infer); handleGraphProxy serves per-graph reads and infers.
func (rt *Router) handleModelProxy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.forward(w, r, name, holdsModel(name))
}

func (rt *Router) handleGraphProxy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.forward(w, r, name, holdsGraph(name))
}

func (rt *Router) handleLive(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string]bool{"live": true})
}

// handleReady reports fleet readiness: ready while at least one replica
// is up, with the up count and the fleet-wide distinct READY model
// count so orchestration can gate on "serving" rather than "listening".
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	up := rt.upCount()
	body := map[string]any{
		"ready":        up > 0,
		"replicas":     len(rt.replicas),
		"replicas_up":  up,
		"models_ready": len(rt.mergedModels()),
	}
	code := http.StatusOK
	if up == 0 {
		code = http.StatusServiceUnavailable
	}
	obs.WriteJSON(w, code, body)
}

// handleModels answers GET /v2/models with the fleet union.
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string]any{"models": rt.mergedModels()})
}

// handleGraphList answers GET /v2/graphs with the fleet union,
// deduplicated by graph name.
func (rt *Router) handleGraphList(w http.ResponseWriter, r *http.Request) {
	seen := map[string]bool{}
	graphs := []map[string]any{}
	for _, rep := range rt.replicas {
		if !rep.up.Load() {
			continue
		}
		for _, row := range rep.view.Load().graphRows {
			name, _ := row["name"].(string)
			if name == "" || seen[name] {
				continue
			}
			seen[name] = true
			graphs = append(graphs, row)
		}
	}
	sort.Slice(graphs, func(i, j int) bool {
		ni, _ := graphs[i]["name"].(string)
		nj, _ := graphs[j]["name"].(string)
		return ni < nj
	})
	obs.WriteJSON(w, http.StatusOK, map[string]any{"graphs": graphs})
}

// handleFleetIndex answers GET /v2/repository/index with the merged
// fleet view: every replica's index rows annotated with the replica
// that holds them, a per-replica budget summary, and fleet totals.
// Fleet ram_budget_bytes / free_bytes are -1 (unbounded) when any up
// replica is unbudgeted, matching the single-replica convention.
func (rt *Router) handleFleetIndex(w http.ResponseWriter, r *http.Request) {
	rows := []map[string]any{}
	replicas := []map[string]any{}
	budget, planned, free := 0, 0, 0
	unbounded := false
	for _, rep := range rt.replicas {
		up := rep.up.Load()
		v := rep.view.Load()
		replicas = append(replicas, map[string]any{
			"url":               rep.url,
			"up":                up,
			"models_ready":      len(v.models),
			"ram_budget_bytes":  v.budgetBytes,
			"ram_planned_bytes": v.plannedBytes,
			"free_bytes":        v.freeBytes,
		})
		if !up {
			continue
		}
		if v.budgetBytes <= 0 {
			unbounded = true
		} else {
			budget += v.budgetBytes
			free += v.freeBytes
		}
		planned += v.plannedBytes
		for _, row := range v.rows {
			merged := make(map[string]any, len(row)+1)
			for k, val := range row {
				merged[k] = val
			}
			merged["replica"] = rep.url
			rows = append(rows, merged)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		ni, _ := rows[i]["name"].(string)
		nj, _ := rows[j]["name"].(string)
		if ni != nj {
			return ni < nj
		}
		ri, _ := rows[i]["replica"].(string)
		rj, _ := rows[j]["replica"].(string)
		return ri < rj
	})
	if unbounded {
		budget, free = -1, -1
	}
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"models":            rows,
		"replicas":          replicas,
		"ram_budget_bytes":  budget,
		"ram_planned_bytes": planned,
		"free_bytes":        free,
	})
}
