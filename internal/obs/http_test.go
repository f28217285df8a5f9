package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStatusWriter: the hook runs once, before the first header write,
// while headers are still mutable; Status and Bytes report what the
// handler sent, and a handler that wrote nothing reads as 200.
func TestStatusWriter(t *testing.T) {
	rec := httptest.NewRecorder()
	calls := 0
	sw := &StatusWriter{ResponseWriter: rec}
	if sw.Status() != http.StatusOK {
		t.Fatalf("nothing written: status %d, want 200", sw.Status())
	}
	sw.BeforeHeader = func() {
		calls++
		sw.Header().Set("X-Hook", "ran")
	}
	sw.WriteHeader(http.StatusTeapot)
	if _, err := sw.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || rec.Header().Get("X-Hook") != "ran" {
		t.Fatalf("hook ran %d times, header %q", calls, rec.Header().Get("X-Hook"))
	}
	if sw.Status() != http.StatusTeapot || sw.Bytes != 3 || rec.Code != http.StatusTeapot {
		t.Fatalf("status %d bytes %d recorded %d", sw.Status(), sw.Bytes, rec.Code)
	}
}
