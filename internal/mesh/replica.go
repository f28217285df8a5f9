package mesh

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"micronets/internal/obs"
)

// replica is one backend cmd/serve process as the router sees it:
// health state, the last fleet-view snapshot (which models and graphs
// it serves, how much budget is free), and per-replica metrics.
type replica struct {
	url string // base URL, no trailing slash

	up atomic.Bool
	// consecFails / consecOKs drive the mark-down / mark-up hysteresis.
	// They are touched only by the health loop (and by tests through
	// setUp), never by the data path.
	consecFails int
	consecOKs   int

	transitions atomic.Uint64 // health state flips (either direction)
	requests    atomic.Uint64 // proxied requests the replica answered
	errors      atomic.Uint64 // transport failures talking to it
	placements  atomic.Uint64 // admin loads placed here
	spills      atomic.Uint64 // budget 409s (or free_bytes skips) here
	hist        obs.Histogram // latency of answered proxied requests

	// view is only ever replaced wholesale (refreshView, setUp(false)),
	// never mutated, so readers just Load it. Never nil.
	view atomic.Pointer[replicaView]
}

// replicaView is the router's last successful snapshot of a replica's
// repository index and graph list. A zero view (before the first
// refresh, or while the replica is down) holds nothing; a refreshed
// one has non-nil rows.
type replicaView struct {
	// models maps name → true for names with a READY version (so
	// len(models) is the replica's models_ready); graphs likewise for
	// registered graphs.
	models map[string]bool
	graphs map[string]bool
	// rows / graphRows are the raw index and graph-list rows (decoded
	// JSON objects), kept verbatim so the merged fleet views never lag
	// the replica's schema.
	rows      []map[string]any
	graphRows []map[string]any
	// budget accounting from the index top level; freeBytes is -1 for
	// an unbudgeted replica.
	budgetBytes  int
	plannedBytes int
	freeBytes    int
}

func newReplica(url string) *replica {
	rep := &replica{url: strings.TrimRight(url, "/")}
	rep.view.Store(&replicaView{})
	return rep
}

// setUp transitions the health state, counting actual flips. It resets
// the opposite-direction hysteresis counter so a recovered replica
// needs fresh consecutive failures to go down again (and vice versa).
func (rep *replica) setUp(up bool) {
	if rep.up.Swap(up) != up {
		rep.transitions.Add(1)
	}
	if up {
		rep.consecFails = 0
	} else {
		rep.consecOKs = 0
		rep.view.Store(&replicaView{})
	}
}

// probe runs one health check against the replica (up iff GET
// /v2/health/ready answers 200 with ready:true) and applies the
// mark-down / mark-up hysteresis: down after downAfter consecutive
// failures, up after upAfter consecutive successes. On success the
// fleet view is refreshed too. Called from the health loop (or New's
// synchronous first round); never concurrently for one replica.
func (rep *replica) probe(client *http.Client, downAfter, upAfter int) {
	var ready struct {
		Ready bool `json:"ready"`
	}
	if getJSON(client, rep.url+"/v2/health/ready", &ready) != nil || !ready.Ready {
		rep.consecOKs = 0
		rep.consecFails++
		if rep.up.Load() && rep.consecFails >= downAfter {
			rep.setUp(false)
		}
		return
	}
	rep.consecFails = 0
	rep.consecOKs++
	if !rep.up.Load() && rep.consecOKs >= upAfter {
		rep.setUp(true)
	}
	if rep.up.Load() {
		rep.refreshView(client)
	}
}

// refreshView re-reads the replica's repository index and graph list
// into the fleet view. It is best-effort: any failure keeps the
// previous view (a stale map beats an empty one for routing) and the
// next health tick repairs it.
func (rep *replica) refreshView(client *http.Client) {
	var idx struct {
		Models          []map[string]any `json:"models"`
		RAMBudgetBytes  int              `json:"ram_budget_bytes"`
		RAMPlannedBytes int              `json:"ram_planned_bytes"`
		FreeBytes       int              `json:"free_bytes"`
	}
	if getJSON(client, rep.url+"/v2/repository/index", &idx) != nil {
		return
	}
	var gl struct {
		Graphs []map[string]any `json:"graphs"`
	}
	if getJSON(client, rep.url+"/v2/graphs", &gl) != nil {
		return
	}
	v := &replicaView{
		models:       make(map[string]bool, len(idx.Models)),
		graphs:       make(map[string]bool, len(gl.Graphs)),
		rows:         idx.Models,
		graphRows:    gl.Graphs,
		budgetBytes:  idx.RAMBudgetBytes,
		plannedBytes: idx.RAMPlannedBytes,
		freeBytes:    idx.FreeBytes,
	}
	if v.rows == nil {
		v.rows = []map[string]any{}
	}
	if v.graphRows == nil {
		v.graphRows = []map[string]any{}
	}
	for _, row := range idx.Models {
		name, _ := row["name"].(string)
		state, _ := row["state"].(string)
		if name != "" && state == "READY" {
			v.models[name] = true
		}
	}
	for _, g := range gl.Graphs {
		if name, _ := g["name"].(string); name != "" {
			v.graphs[name] = true
		}
	}
	rep.view.Store(v)
}

// getJSON fetches one JSON document (bounded) or fails on non-200.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("mesh: GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(v)
}

// drainClose empties and closes a response body so the transport can
// reuse the connection.
func drainClose(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 1<<20))
	rc.Close()
}
