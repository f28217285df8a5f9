package serve

import (
	"net/http"
	"strconv"

	"micronets/internal/mcu"
	"micronets/internal/obs"
)

// profileResponse is the body of GET /v2/models/{name}/profile: the
// measured-vs-predicted per-op join for the serving version, averaged
// over `runs` profiled invokes on one pooled interpreter.
type profileResponse struct {
	Version int `json:"version"`
	*mcu.Profile
}

// handleProfile measures per-op wall time on a pooled interpreter of the
// serving version and joins it against the mcu cost model's predictions
// — the paper's latency-linearity claim (§3), checked live on the
// serving host. ?runs=N (default 8, max 64) controls averaging; the
// version stays pinned and the interpreter checked out for the whole
// measurement, so a concurrent swap or infer burst cannot corrupt it.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	v, err := s.repo.acquire(name)
	if err != nil {
		obs.WriteJSON(w, http.StatusNotFound, v2Error{Error: err.Error()})
		return
	}
	defer v.release()
	runs := 8
	if q := r.URL.Query().Get("runs"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: "runs must be a positive integer"})
			return
		}
		if n > 64 {
			n = 64
		}
		runs = n
	}

	mod := v.model
	ip, err := v.pool.Get(r.Context())
	if err != nil {
		obs.WriteJSON(w, http.StatusServiceUnavailable, v2Error{Error: err.Error()})
		return
	}
	defer v.pool.Put(ip)
	// Deterministic non-zero input so every run exercises the same data
	// path; content does not affect int8 kernel timing.
	in := ip.Input()
	for i := range in {
		in[i] = int8(i%251 - 125)
	}
	// One warm invoke so the measured runs never pay first-touch costs.
	if err := ip.Invoke(); err != nil {
		ip.Reset()
		obs.WriteJSON(w, http.StatusInternalServerError, v2Error{Error: err.Error()})
		return
	}
	sums := make([]float64, len(mod.Ops))
	for run := 0; run < runs; run++ {
		for i := range in {
			in[i] = int8(i%251 - 125)
		}
		timings, err := ip.ProfileInvoke()
		if err != nil {
			ip.Reset()
			obs.WriteJSON(w, http.StatusInternalServerError, v2Error{Error: err.Error()})
			return
		}
		for _, t := range timings {
			sums[t.Index] += float64(t.Ns)
		}
	}
	for i := range sums {
		sums[i] /= float64(runs)
	}
	prof, err := mcu.JoinProfile(mod, sums, runs)
	if err != nil {
		// An op the cost model cannot score makes the join impossible —
		// report it rather than a partial table.
		obs.WriteJSON(w, http.StatusUnprocessableEntity, v2Error{Error: err.Error()})
		return
	}
	obs.WriteJSON(w, http.StatusOK, profileResponse{Version: v.num, Profile: prof})
}
