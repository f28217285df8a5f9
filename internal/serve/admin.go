package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"micronets/internal/arch"
	"micronets/internal/obs"
	"micronets/internal/zoo"
)

// ---- repository admin control plane ----

// repoLoadRequest is the body of POST /v2/repository/models/{name}/load.
// All fields are optional: an empty body loads {name} from the zoo
// catalogue. A spec that arrives in the body is loaded into this
// server's repository only; nothing outlives the load. Unknown fields
// are ignored.
type repoLoadRequest struct {
	// SpecFile only detects the retired "spec_file" form, which named a
	// server-local file: the server opens no path a caller names, so such
	// a body is refused without reading its value.
	SpecFile json.RawMessage `json:"spec_file"`
	// Spec is a complete inline architecture, the no-shared-filesystem
	// publish path (cmd/search -publish). Its name must match the URL.
	Spec *arch.Spec `json:"spec,omitempty"`
	// Options overrides the server's default lowering for this load.
	Options *repoLoadOptions `json:"options,omitempty"`
}

// repoLoadOptions overrides individual fields of the server's default
// lowering; absent fields keep the default (so `{"seed":7}` on a 4-bit
// server still loads a 4-bit model).
type repoLoadOptions struct {
	WeightBits *int   `json:"weight_bits,omitempty"`
	ActBits    *int   `json:"act_bits,omitempty"`
	Seed       *int64 `json:"seed,omitempty"`
	Softmax    *bool  `json:"softmax,omitempty"`
}

// repoBudgetError is the structured 409 body for over-budget loads.
type repoBudgetError struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	Model        string `json:"model"`
	NeededBytes  int    `json:"needed_bytes"`
	BudgetBytes  int    `json:"budget_bytes"`
	PlannedBytes int    `json:"planned_bytes"`
	// FreeBytes = BudgetBytes − PlannedBytes, precomputed so a fleet
	// placer can compare it against NeededBytes without diffing gauges.
	FreeBytes int `json:"free_bytes"`
}

// writeRepoError maps control-plane errors onto admin API statuses: 409
// for budget rejections (with the structured body), 404 for unknown
// models, 503 when closed, 400 otherwise.
func writeRepoError(w http.ResponseWriter, err error) {
	var be *BudgetError
	if errors.As(err, &be) {
		obs.WriteJSON(w, http.StatusConflict, repoBudgetError{
			Error:        be.Error(),
			Code:         "ram_budget_exceeded",
			Model:        be.Model,
			NeededBytes:  be.NeededBytes,
			BudgetBytes:  be.BudgetBytes,
			PlannedBytes: be.PlannedBytes,
			FreeBytes:    be.BudgetBytes - be.PlannedBytes,
		})
		return
	}
	var iu *ModelInUseError
	if errors.As(err, &iu) {
		obs.WriteJSON(w, http.StatusConflict, map[string]any{
			"error":  iu.Error(),
			"code":   "model_referenced",
			"model":  iu.Model,
			"graphs": iu.Holders,
		})
		return
	}
	var nl *NotLoadedError
	switch {
	case errors.As(err, &nl):
		obs.WriteJSON(w, http.StatusNotFound, v2Error{Error: err.Error()})
	case errors.Is(err, ErrRepositoryClosed):
		obs.WriteJSON(w, http.StatusServiceUnavailable, v2Error{Error: err.Error()})
	default:
		obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: err.Error()})
	}
}

func (s *Server) handleRepoIndex(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string]any{
		"models":            s.repo.Index(),
		"ram_budget_bytes":  s.repo.RAMBudgetBytes(),
		"ram_planned_bytes": s.repo.PlannedRAMBytes(),
		"free_bytes":        s.repo.FreeRAMBytes(),
	})
}

func (s *Server) handleRepoLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req repoLoadRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			obs.WriteJSON(w, http.StatusRequestEntityTooLarge, v2Error{Error: "load body exceeds 1MB"})
			return
		}
		obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: "reading load body: " + err.Error()})
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: "bad JSON: " + err.Error()})
			return
		}
	}
	opts := s.cfg.Options
	if o := req.Options; o != nil {
		if o.WeightBits != nil {
			opts.WeightBits = *o.WeightBits
		}
		if o.ActBits != nil {
			opts.ActBits = *o.ActBits
		}
		if o.Seed != nil {
			opts.Seed = *o.Seed
		}
		if o.Softmax != nil {
			opts.AppendSoftmax = *o.Softmax
		}
	}

	spec, source := req.Spec, "inline-spec"
	switch {
	case req.SpecFile != nil:
		obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: "spec_file is not accepted: send the spec inline as \"spec\""})
		return
	case spec != nil:
		if spec.Name != name {
			obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: fmt.Sprintf(
				"inline spec is named %q, URL says %q", spec.Name, name)})
			return
		}
		if _, err := zoo.Get(name); err == nil {
			obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: fmt.Sprintf(
				"inline spec may not take the catalogue model name %q", name)})
			return
		}
	default:
		e, err := zoo.Get(name)
		if err != nil {
			obs.WriteJSON(w, http.StatusNotFound, v2Error{Error: err.Error()})
			return
		}
		if e.Spec == nil {
			obs.WriteJSON(w, http.StatusBadRequest, v2Error{Error: fmt.Sprintf(
				"%s is a stats-only comparison point (no public architecture)", name)})
			return
		}
		spec, source = e.Spec, "catalogue"
	}
	st, err := s.repo.Load(spec, opts)
	if err != nil {
		writeRepoError(w, err)
		return
	}
	s.log.Info("model load", "model", name, "version", st.Version,
		"source", source, "trace", obs.TraceIDFrom(r.Context()))
	obs.WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleRepoUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.repo.Unload(name); err != nil {
		writeRepoError(w, err)
		return
	}
	s.log.Info("model unload", "model", name, "trace", obs.TraceIDFrom(r.Context()))
	obs.WriteJSON(w, http.StatusOK, map[string]any{"name": name, "state": StateDraining})
}
