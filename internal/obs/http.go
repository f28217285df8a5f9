package obs

import (
	"encoding/json"
	"io"
	"net/http"
)

// WriteJSON answers with status code and v as a JSON body: the one
// response writer of the serving and routing APIs.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) //microvet:ignore droppederr headers are already written; an encode failure means the client hung up
}

// WriteScrape answers a /metrics scrape with a rendered Prometheus text
// exposition.
func WriteScrape(w http.ResponseWriter, body string) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, body) //microvet:ignore droppederr client disconnects during a scrape are not actionable
}
