package mesh

import (
	"encoding/json"
	"fmt"
	"net/http"

	"micronets/internal/obs"
)

// budget409 is the structured ram_budget_exceeded body a replica
// answers an over-budget load with. It doubles as the router's own
// fleet-wide 409 once every candidate has spilled.
type budget409 struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	Model        string `json:"model"`
	NeededBytes  int    `json:"needed_bytes"`
	BudgetBytes  int    `json:"budget_bytes"`
	PlannedBytes int    `json:"planned_bytes"`
	FreeBytes    int    `json:"free_bytes"`
}

// handleLoad places an admin load onto the fleet. Candidates are the up
// replicas in the model's ring-affinity order, holders first (a reload
// should land where the model already lives). A candidate that answers
// 409 ram_budget_exceeded spills the placement to the next one, and
// once such a 409 has said how many bytes the load needs, a candidate
// whose last observed free_bytes can't fit that is skipped without a
// request. Any other replica answer (200, 400 bad spec, ...) is final
// and relayed. When every candidate spilled, the router answers its own
// 409 with the largest free budget seen, so the caller knows how far
// over the fleet the load was.
func (rt *Router) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	cands, _ := rt.candidates(name, holdsModel(name))
	needed, maxFree, spilled := 0, -1, 0
	skip := func(rep *replica) bool {
		v := rep.view.Load()
		if v.rows == nil || v.freeBytes < 0 {
			return false // never refreshed, or unbudgeted: no pressure
		}
		maxFree = max(maxFree, v.freeBytes)
		// Skip only on evidence: needed comes from a real 409.
		if needed == 0 || v.freeBytes >= needed {
			return false
		}
		rep.spills.Add(1)
		spilled++
		return true
	}
	spills := func(a answer) bool {
		var be budget409
		if a.status != http.StatusConflict || json.Unmarshal(a.body, &be) != nil || be.Code != "ram_budget_exceeded" {
			return false
		}
		a.rep.spills.Add(1)
		spilled++
		needed = max(needed, be.NeededBytes)
		maxFree = max(maxFree, be.FreeBytes)
		return true
	}
	ans, err := rt.walk(r, body, cands, skip, spills)
	switch {
	case ans.final:
		rt.writePlaced(w, ans)
	case spilled > 0:
		rt.placeFails.Add(1)
		obs.WriteJSON(w, http.StatusConflict, budget409{
			Error: fmt.Sprintf(
				"model %s does not fit on any of %d replicas (needs %d bytes, best free %d)",
				name, len(cands), needed, maxFree),
			Code:        "ram_budget_exceeded",
			Model:       name,
			NeededBytes: needed,
			FreeBytes:   maxFree,
		})
	default:
		writeUnanswered(w, err)
	}
}

// writePlaced relays a placement walk's final answer. A 200 counts as a
// placement and refreshes the winner's view synchronously, so the data
// plane and the fleet index see the new model or graph before the next
// health tick.
func (rt *Router) writePlaced(w http.ResponseWriter, ans answer) {
	if ans.status == http.StatusOK {
		ans.rep.placements.Add(1)
		ans.rep.refreshView(rt.cfg.Client)
	}
	writeProxied(w, ans)
}

// handleGraphPut places a graph registration: the target replica must
// already hold every model the graph references, so a 404 unknown_model
// or 409 model_not_loaded from one candidate spills to the next. Other
// answers (200, 400 bad graph, 409 stale_version CAS failures) are
// final. When every candidate spilled, the last spill is the answer.
func (rt *Router) handleGraphPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	cands, _ := rt.candidates(name, holdsGraph(name))
	ans, err := rt.walk(r, body, cands, nil, func(a answer) bool {
		if !graphPlacementSpill(a.status, a.body) {
			return false
		}
		a.rep.spills.Add(1)
		return true
	})
	switch {
	case err != nil:
		writeUnanswered(w, err)
	case ans.final:
		rt.writePlaced(w, ans)
	default:
		rt.placeFails.Add(1)
		writeProxied(w, ans)
	}
}

// graphPlacementSpill reports whether a graph PUT answer means "this
// replica lacks the referenced models" (spill) rather than "the graph
// itself is bad" (final).
func graphPlacementSpill(status int, body []byte) bool {
	if status != http.StatusNotFound && status != http.StatusConflict {
		return false
	}
	var e struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(body, &e) != nil {
		return false
	}
	return e.Code == "unknown_model" || e.Code == "model_not_loaded"
}

// fanOut sends the request to every up replica whose fleet view holds
// the target, one attempt each in affinity order, refreshing each
// holder's view as it goes. It returns the URLs that answered 200/204,
// or false after writing the failure: 404 with notHeld when there is no
// holder, 502 on a transport failure, the first non-OK replica answer
// otherwise.
func (rt *Router) fanOut(w http.ResponseWriter, r *http.Request, name string, holds func(*replicaView) bool, notHeld string) ([]string, bool) {
	body, ok := readBody(w, r)
	if !ok {
		return nil, false
	}
	cands, holders := rt.candidates(name, holds)
	if holders == 0 {
		obs.WriteJSON(w, http.StatusNotFound, meshError{Error: fmt.Sprintf(notHeld, name)})
		return nil, false
	}
	done := []string{}
	for _, rep := range cands[:holders] {
		ans, err := rt.attempt(rep, r, body)
		if err != nil {
			obs.WriteJSON(w, http.StatusBadGateway, meshError{
				Error: fmt.Sprintf("%s %s on %s failed: %v", r.Method, r.URL.Path, rep.url, err),
				Code:  "replicas_unreachable"})
			return nil, false
		}
		if ans.status != http.StatusOK && ans.status != http.StatusNoContent {
			writeProxied(w, ans)
			return nil, false
		}
		done = append(done, rep.url)
		rep.refreshView(rt.cfg.Client)
	}
	return done, true
}

// handleUnload fans the unload out to every holder of the model.
func (rt *Router) handleUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if from, ok := rt.fanOut(w, r, name, holdsModel(name), "model %s is not loaded on any replica"); ok {
		obs.WriteJSON(w, http.StatusOK, map[string]any{"model": name, "unloaded_from": from})
	}
}

// handleGraphDelete fans the delete out to every holder of the graph.
func (rt *Router) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if from, ok := rt.fanOut(w, r, name, holdsGraph(name), "graph %s is not registered on any replica"); ok {
		obs.WriteJSON(w, http.StatusOK, map[string]any{"graph": name, "deleted_from": from})
	}
}
