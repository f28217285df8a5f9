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

// RequestTraceID returns r's inbound X-Micronets-Trace-Id, or a fresh ID
// when it carries none, so one ID follows a request across the router →
// replica hop.
func RequestTraceID(r *http.Request) string {
	if id := r.Header.Get("X-Micronets-Trace-Id"); id != "" {
		return id
	}
	return NewTraceID()
}

// StatusWriter wraps a handler's ResponseWriter to capture what the
// request log reports: the response code and the body bytes written.
type StatusWriter struct {
	http.ResponseWriter
	// BeforeHeader, when set, runs once, immediately before the first
	// WriteHeader or Write, while response headers are still mutable.
	BeforeHeader func()
	// Bytes counts the body bytes written.
	Bytes  int
	status int
}

func (sw *StatusWriter) WriteHeader(code int) {
	sw.beforeHeader()
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *StatusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.beforeHeader()
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.Bytes += n
	return n, err
}

// Status returns the response code: 200 when the handler wrote nothing,
// as net/http then answers.
func (sw *StatusWriter) Status() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

func (sw *StatusWriter) beforeHeader() {
	if f := sw.BeforeHeader; f != nil {
		sw.BeforeHeader = nil
		f()
	}
}
