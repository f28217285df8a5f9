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
// catalogue (including previously registered search exports).
type repoLoadRequest struct {
	// SpecFile is a server-local spec file (cmd/search -export output) to
	// register before loading {name} from it.
	SpecFile string `json:"spec_file,omitempty"`
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
		writeJSON(w, http.StatusConflict, repoBudgetError{
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
		writeJSON(w, http.StatusConflict, map[string]any{
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
		writeJSON(w, http.StatusNotFound, v2Error{Error: err.Error()})
	case errors.Is(err, ErrRepositoryClosed):
		writeJSON(w, http.StatusServiceUnavailable, v2Error{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, v2Error{Error: err.Error()})
	}
}

func (s *Server) handleRepoIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
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
			writeJSON(w, http.StatusRequestEntityTooLarge, v2Error{Error: "load body exceeds 1MB"})
			return
		}
		writeJSON(w, http.StatusBadRequest, v2Error{Error: "reading load body: " + err.Error()})
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, v2Error{Error: "bad JSON: " + err.Error()})
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

	if req.Spec != nil {
		if req.Spec.Name != name {
			writeJSON(w, http.StatusBadRequest, v2Error{Error: fmt.Sprintf(
				"inline spec is named %q, URL says %q", req.Spec.Name, name)})
			return
		}
		// Register the publication, load, and — on failure — roll the
		// catalogue back to its snapshot, under the publish lock: a load
		// rejected by the budget must leave the zoo exactly as it was,
		// and a concurrent successful publish of the same name must never
		// be undone by a failing one.
		s.publishMu.Lock()
		defer s.publishMu.Unlock()
		entry := &zoo.Entry{Name: name, Task: req.Spec.Task, Spec: req.Spec,
			Notes: "published via /v2/repository"}
		prev := zooEntryFor(name)
		if err := zoo.Register(entry); err != nil {
			writeJSON(w, http.StatusBadRequest, v2Error{Error: err.Error()})
			return
		}
		st, err := s.repo.Load(req.Spec, opts)
		if err != nil {
			// Roll back only if the entry is still ours — a concurrent
			// spec-file load may have re-registered the name meanwhile,
			// and its registration must survive our failure.
			if cur := zooEntryFor(name); cur != nil && cur.Spec == req.Spec {
				if prev != nil {
					_ = zoo.Register(prev) //microvet:ignore droppederr rollback restores a spec that registered before; failure would just repeat the error already being returned
				} else {
					zoo.Unregister(name)
				}
			}
			writeRepoError(w, err)
			return
		}
		s.log.Info("model load", "model", name, "version", st.Version,
			"source", "inline-spec", "trace", obs.TraceIDFrom(r.Context()))
		writeJSON(w, http.StatusOK, st)
		return
	}

	if req.SpecFile != "" {
		if _, err := zoo.RegisterSpecFile(req.SpecFile); err != nil {
			writeJSON(w, http.StatusBadRequest, v2Error{Error: err.Error()})
			return
		}
	}
	e, err := zoo.Get(name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, v2Error{Error: err.Error()})
		return
	}
	if e.Spec == nil {
		writeJSON(w, http.StatusBadRequest, v2Error{Error: fmt.Sprintf(
			"%s is a stats-only comparison point (no public architecture)", name)})
		return
	}
	st, err := s.repo.Load(e.Spec, opts)
	if err != nil {
		writeRepoError(w, err)
		return
	}
	s.log.Info("model load", "model", name, "version", st.Version,
		"source", "catalogue", "trace", obs.TraceIDFrom(r.Context()))
	writeJSON(w, http.StatusOK, st)
}

// zooEntryFor snapshots the current catalogue entry for a name (nil when
// absent or stats-only), for rolling back a failed inline publish. A
// built-in entry never reaches the rollback: registering over it fails
// before any load is attempted.
func zooEntryFor(name string) *zoo.Entry {
	e, err := zoo.Get(name)
	if err != nil || e.Spec == nil {
		return nil
	}
	return e
}

func (s *Server) handleRepoUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.repo.Unload(name); err != nil {
		writeRepoError(w, err)
		return
	}
	s.log.Info("model unload", "model", name, "trace", obs.TraceIDFrom(r.Context()))
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "state": StateDraining})
}
