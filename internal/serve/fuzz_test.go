package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"micronets/internal/graph"
)

// FuzzInferDecode throws arbitrary bytes at the one decode step behind
// POST /v2/models/{m}/infer and POST /v2/graphs/{g}/infer. It must never
// panic; a refusal is a 400 or 413; and whatever it accepts is a
// well-formed client batch whose rows quantize into the input tensor's
// range (4-bit layouts make that range tighter than int8 itself).
func FuzzInferDecode(f *testing.F) {
	// The bodies of TestInferBadRequests and TestInferShapeValidation.
	zeros := func(n int) string { return strings.Repeat("0,", n-1) + "0" }
	for _, seed := range []string{
		"{not json",
		`{"inputs":[]}`,
		`{"inputs":[{"name":"input","datatype":"FP32","shape":[3],"data":[1,2,3]}]}`,
		`{"inputs":[{"name":"input","datatype":"FP64","shape":[490],"data":[` + zeros(490) + `]}]}`,
		`{"inputs":[{"name":"input","datatype":"INT8","shape":[490],"data":[999,` + zeros(489) + `]}]}`,
		`{"inputs":[{"name":"input","datatype":"INT8","data":[-8,7,` + zeros(488) + `]}]}`,
		`{"id":"t1","inputs":[{"name":"input","datatype":"FP32","data":[1e300,-1e300,` + zeros(488) + `]}],"parameters":{"route":"a"}}`,
		`{"inputs":[{"name":"input","shape":[49,10,1],"data":[` + zeros(490) + `]}]}`,
		`{"inputs":[{"name":"input","shape":[2,490],"data":[` + zeros(980) + `]}]}`,
		`{"inputs":[{"name":"input","shape":[2,49,10,1],"data":[` + zeros(980) + `]}]}`,
		`{"inputs":[{"name":"input","shape":[10,49,1],"data":[` + zeros(490) + `]}]}`,
		`{"inputs":[{"name":"input","shape":[49,10],"data":[` + zeros(490) + `]}]}`,
		`{"inputs":[{"name":"input","shape":[49,10,1],"data":[` + zeros(980) + `]}]}`,
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, fourBit bool) {
		layout := &graph.Tensor{H: 49, W: 10, C: 1, Bits: 8, Scale: 0.05, ZeroPoint: 5}
		lo, hi := int8(-128), int8(127)
		if fourBit {
			layout.Bits, lo, hi = 4, -8, 7
		}
		elems := layout.Elems()
		rec := httptest.NewRecorder()
		req, n, ok := decodeInfer(rec, httptest.NewRequest("POST", "/v2/models/fuzz/infer", bytes.NewReader(body)), layout, "model fuzz")
		if !ok {
			var e v2Error
			if (rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge) ||
				json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
				t.Fatalf("refusal answered %d %q, want a 400/413 with an error body", rec.Code, rec.Body)
			}
			return
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("accepted request already wrote a response: %q", rec.Body)
		}
		in := req.Inputs[0]
		if n < 1 || n > maxInferRows || len(in.Data) != n*elems {
			t.Fatalf("accepted a batch of %d rows over %d values (elems %d, max rows %d)", n, len(in.Data), elems, maxInferRows)
		}
		for b := 0; b < n; b++ {
			row, err := quantizeRow(layout, in.Datatype, in.Data[b*elems:(b+1)*elems])
			if err != nil {
				continue // unsupported datatype or out-of-range INT8: a 400
			}
			for i, q := range row {
				if q < lo || q > hi {
					t.Fatalf("row %d value %d quantized to %d, outside [%d,%d]", b, i, q, lo, hi)
				}
			}
		}
	})
}
