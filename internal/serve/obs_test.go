package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"micronets/internal/obs"
	"micronets/internal/zoo"
)

func kwsTestRow(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, 49*10*1)
	for i := range data {
		data[i] = rng.Float64()*2 - 1
	}
	return data
}

// TestMetricsExpositionValid is the exposition-format satellite: parse
// the whole /metrics payload and assert every family declares HELP/TYPE
// before its samples, no family is declared twice, histogram buckets are
// cumulative, and every histogram ends in le="+Inf" matching _count.
func TestMetricsExpositionValid(t *testing.T) {
	_, ts := newTestServer(t)
	inferOnce(t, ts.URL, "MicroNet-KWS-S", kwsTestRow(1))
	inferOnce(t, ts.URL, "DSCNN-S", kwsTestRow(2))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	type family struct {
		help, typ bool
		typeName  string
	}
	families := map[string]*family{}
	declared := func(name string) *family {
		f := families[name]
		if f == nil {
			f = &family{}
			families[name] = f
		}
		return f
	}
	// sampleFamily strips histogram/summary suffixes to the declaring
	// family name.
	sampleFamily := func(metric string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(metric, suf)
			if base != metric {
				if f, ok := families[base]; ok && f.typeName == "histogram" {
					return base
				}
			}
		}
		return metric
	}

	// histState tracks per-series cumulative bucket order.
	type histKey struct{ family, labels string }
	lastBucket := map[histKey]float64{}
	infSeen := map[histKey]float64{}
	countSeen := map[histKey]float64{}

	for lineNo, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			f := declared(name)
			if f.help {
				t.Errorf("line %d: duplicate HELP for family %s", lineNo+1, name)
			}
			if f.typ {
				t.Errorf("line %d: HELP for %s after its TYPE", lineNo+1, name)
			}
			f.help = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			name, typ := fields[2], fields[3]
			f := declared(name)
			if f.typ {
				t.Errorf("line %d: duplicate TYPE for family %s", lineNo+1, name)
			}
			if !f.help {
				t.Errorf("line %d: TYPE for %s without preceding HELP", lineNo+1, name)
			}
			f.typ = true
			f.typeName = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample line: metric{labels} value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: unparseable sample %q", lineNo+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", lineNo+1, line, err)
		}
		metric, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			metric, labels = series[:i], series[i:]
		}
		fam := sampleFamily(metric)
		f, ok := families[fam]
		if !ok || !f.help || !f.typ {
			t.Errorf("line %d: sample %s before HELP/TYPE of family %s", lineNo+1, metric, fam)
			continue
		}
		if f.typeName != "histogram" {
			continue
		}
		switch {
		case strings.HasSuffix(metric, "_bucket"):
			le := ""
			for _, part := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if v, ok := strings.CutPrefix(part, `le="`); ok {
					le = strings.TrimSuffix(v, `"`)
				}
			}
			if le == "" {
				t.Errorf("line %d: histogram bucket without le label: %q", lineNo+1, line)
				continue
			}
			// Key by the series minus the le label so cumulativeness is
			// checked per labeled series.
			base := strings.ReplaceAll(labels, `le="`+le+`",`, "")
			base = strings.ReplaceAll(base, `,le="`+le+`"`, "")
			base = strings.ReplaceAll(base, `le="`+le+`"`, "")
			k := histKey{fam, base}
			if val < lastBucket[k] {
				t.Errorf("line %d: bucket counts not cumulative for %s%s: %v < %v", lineNo+1, fam, base, val, lastBucket[k])
			}
			lastBucket[k] = val
			if le == "+Inf" {
				infSeen[k] = val
			}
		case strings.HasSuffix(metric, "_count"):
			base := labels
			countSeen[histKey{fam, base}] = val
		}
	}
	if len(infSeen) == 0 {
		t.Fatal("no histogram series with le=\"+Inf\" found")
	}
	for k, inf := range infSeen {
		if c, ok := countSeen[k]; !ok || c != inf {
			t.Errorf("series %s%s: +Inf bucket %v != _count %v", k.family, k.labels, inf, c)
		}
	}
	// The acceptance-criterion families must be present with samples.
	for _, want := range []string{
		`micronets_serve_request_latency_seconds_bucket{model="MicroNet-KWS-S",le="+Inf"}`,
		`micronets_serve_queue_wait_seconds_bucket{model="MicroNet-KWS-S",le="+Inf"}`,
		`micronets_serve_invoke_seconds_bucket{model="MicroNet-KWS-S",le="+Inf"}`,
		`micronets_serve_decode_seconds_bucket{model="MicroNet-KWS-S",le="+Inf"}`,
		`micronets_serve_encode_seconds_bucket{model="MicroNet-KWS-S",le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v2/models/MicroNet-KWS-S/profile?runs=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("profile: status %d: %s", resp.StatusCode, body)
	}
	var prof struct {
		Version    int     `json:"version"`
		Model      string  `json:"model"`
		Runs       int     `json:"runs"`
		NsPerCycle float64 `json:"ns_per_cycle"`
		R2         float64 `json:"r2"`
		Ops        []struct {
			Index           int     `json:"index"`
			Kind            string  `json:"kind"`
			Name            string  `json:"name"`
			MeasuredNs      float64 `json:"measured_ns"`
			MeasuredShare   float64 `json:"measured_share"`
			PredictedCycles float64 `json:"predicted_cycles"`
			PredictedShare  float64 `json:"predicted_share"`
			Ratio           float64 `json:"ratio"`
		} `json:"ops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&prof); err != nil {
		t.Fatal(err)
	}
	if prof.Runs != 2 || prof.Version < 1 {
		t.Fatalf("profile header = %+v", prof)
	}
	e, err := zoo.Get("MicroNet-KWS-S")
	if err != nil {
		t.Fatal(err)
	}
	_ = e
	if len(prof.Ops) == 0 {
		t.Fatal("profile has no ops")
	}
	var mShare, pShare, totalNs float64
	for _, op := range prof.Ops {
		if op.MeasuredNs < 0 || op.PredictedCycles <= 0 {
			t.Fatalf("op %d: measured %v predicted %v", op.Index, op.MeasuredNs, op.PredictedCycles)
		}
		mShare += op.MeasuredShare
		pShare += op.PredictedShare
		totalNs += op.MeasuredNs
	}
	if mShare < 0.99 || mShare > 1.01 || pShare < 0.99 || pShare > 1.01 {
		t.Fatalf("shares must sum to ~1: measured %v predicted %v", mShare, pShare)
	}
	if totalNs <= 0 || prof.NsPerCycle <= 0 {
		t.Fatalf("profile measured nothing: total %v ns/cycle %v", totalNs, prof.NsPerCycle)
	}

	// Unknown model and bad runs are client errors.
	if r2, _ := http.Get(ts.URL + "/v2/models/NoSuchModel/profile"); r2.StatusCode != 404 {
		t.Fatalf("unknown model: status %d", r2.StatusCode)
	}
	if r3, _ := http.Get(ts.URL + "/v2/models/MicroNet-KWS-S/profile?runs=zero"); r3.StatusCode != 400 {
		t.Fatalf("bad runs: status %d", r3.StatusCode)
	}
}

func TestTraceIDOnEveryResponse(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v2/health/live")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Micronets-Trace-Id"); len(id) != 16 {
		t.Fatalf("trace ID header = %q, want 16 hex chars", id)
	}
	// An inbound ID is honored, not replaced.
	req, _ := http.NewRequest("GET", ts.URL+"/v2/health/live", nil)
	req.Header.Set("X-Micronets-Trace-Id", "deadbeefdeadbeef")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id := resp2.Header.Get("X-Micronets-Trace-Id"); id != "deadbeefdeadbeef" {
		t.Fatalf("inbound trace ID not honored: got %q", id)
	}
}

func TestTraceSpansOnInfer(t *testing.T) {
	_, ts := newTestServer(t)
	body, _ := json.Marshal(v2InferRequest{Inputs: []v2Tensor{{
		Name: "input", Datatype: "FP32", Data: kwsTestRow(3),
	}}})
	req, _ := http.NewRequest("POST", ts.URL+"/v2/models/MicroNet-KWS-S/infer", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Micronets-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("infer: status %d", resp.StatusCode)
	}
	raw := resp.Header.Get("X-Micronets-Trace")
	if raw == "" {
		t.Fatal("no X-Micronets-Trace response header")
	}
	var spans []obs.Span
	if err := json.Unmarshal([]byte(raw), &spans); err != nil {
		t.Fatalf("span JSON: %v", err)
	}
	traceID := resp.Header.Get("X-Micronets-Trace-Id")
	byName := map[string]obs.Span{}
	var rootID int
	for _, s := range spans {
		byName[s.Name] = s
		if s.TraceID != traceID {
			t.Errorf("span %q trace ID %q != header %q", s.Name, s.TraceID, traceID)
		}
		if s.Name == "request" {
			rootID = s.ID
		}
	}
	for _, want := range []string{"request", "queue", "invoke"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing span %q in %v", want, spans)
		}
	}
	if byName["request"].Parent != 0 {
		t.Errorf("request span has parent %d", byName["request"].Parent)
	}
	for _, child := range []string{"queue", "invoke"} {
		if byName[child].Parent != rootID {
			t.Errorf("%s span parent = %d, want root %d", child, byName[child].Parent, rootID)
		}
		if byName[child].Attrs["model"] != "MicroNet-KWS-S" {
			t.Errorf("%s span attrs = %v", child, byName[child].Attrs)
		}
	}
	// Without the opt-in header, no span payload comes back.
	resp2, err := http.Post(ts.URL+"/v2/models/MicroNet-KWS-S/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Micronets-Trace") != "" {
		t.Fatal("span payload returned without opt-in")
	}
}
