package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"micronets/internal/zoo"
)

// PublishFrontier hot-loads every spec of an exported frontier into a
// running cmd/serve instance through its /v2/repository control plane —
// the "search publishes straight to production" half of the continuous
// search→serve loop. Each spec is sent inline in the load body, so the
// server needs no shared filesystem; the server loads it into its own
// repository (a blue/green swap when the name is live) and keeps it there
// only. Returns the names loaded so far; on error, the returned slice
// tells the caller which models DID make it.
func PublishFrontier(ctx context.Context, baseURL string, file *zoo.SpecFile) ([]string, error) {
	if file == nil || len(file.Specs) == 0 {
		return nil, fmt.Errorf("search: nothing to publish")
	}
	base := strings.TrimRight(baseURL, "/")
	client := &http.Client{Timeout: 60 * time.Second}
	var names []string
	for _, s := range file.Specs {
		body, err := json.Marshal(map[string]any{"spec": s})
		if err != nil {
			return names, fmt.Errorf("search: publish %s: %w", s.Name, err)
		}
		u := base + "/v2/repository/models/" + url.PathEscape(s.Name) + "/load"
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return names, fmt.Errorf("search: publish %s: %w", s.Name, err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return names, fmt.Errorf("search: publish %s: %w", s.Name, err)
		}
		reply, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16)) //microvet:ignore droppederr best-effort error-body capture; the status code drives the real error below
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			// The server's structured error (e.g. the 409 RAM-budget
			// rejection) is the useful part; surface it verbatim.
			return names, fmt.Errorf("search: publish %s: server returned %d: %s",
				s.Name, resp.StatusCode, strings.TrimSpace(string(reply)))
		}
		names = append(names, s.Name)
	}
	return names, nil
}
