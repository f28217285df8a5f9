package serve

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"micronets/internal/graph"
	"micronets/internal/servegraph"
)

// v2InferRequest is the infer body as encoding/json sees it: the oracle
// the one-pass decoder in codec.go is checked against, and the shape
// tests marshal their request bodies from.
type v2InferRequest struct {
	ID         string            `json:"id,omitempty"`
	Inputs     []v2Tensor        `json:"inputs"`
	Parameters map[string]string `json:"parameters,omitempty"`
}

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

// FuzzInferDecodeMatchesStdlib checks the one-pass decoder against
// json.Unmarshal into v2InferRequest:
//
//   - whatever the decoder accepts, encoding/json accepts with the same
//     ID, parameters, names, datatypes, shapes and bit-identical data
//     (so whatever encoding/json refuses, the decoder refuses);
//   - whatever encoding/json accepts re-marshals into a body the decoder
//     accepts and reads back bit for bit;
//   - so does json.Marshal of a random request drawn from seed, with the
//     float values that stress a parser most (−0, subnormals, ±1e308).
//
// The refusals encoding/json would accept are TestInferDecodeDivergences.
func FuzzInferDecodeMatchesStdlib(f *testing.F) {
	in := func(data string) string { return `{"inputs":[{"name":"input","data":[` + data + `]}]}` }
	for i, seed := range []string{
		in("1e400"), in("-1e400"), in("1e-400"), in("NaN"), in("Infinity"), in("-Inf"), in("0x1p3"),
		in("1_0"), in("01"), in(".5"), in("-"), in("1."), in("+1"), in("1e"), in("1e+"), in("-0"),
		in("5e-324"), in("2.2250738585072014e-308"), in("1e-310"), in("1E+02"), in("-1.7976931348623157e308"),
		in("1,null,2"), in(`"1"`), in("[1]"), in("1 2"), in(""), in("1,"),
		`{"inputs":[{"shape":[2,null],"data":[1,2]}]}`,
		`{"inputs":[{"shape":[1.0],"data":[1]}]}`,
		`{"inputs":[{"shape":[9223372036854775808],"data":[1]}]}`,
		`{"inputs":[{"shape":[-0,1e0],"data":[1]}]}`,
		`{"inputs":[null,{"data":[1]}]}`,
		`{"x":{"y":[1,{"z":[true,false,null,"s\u00e9\n"]}],"w":-1.5e-3},"inputs":[{"q":[[]],"data":[1]}]}`,
		`{"id":"a","id":"b","inputs":[]}`,
		`{"inputs":[],"inputs":[{"data":[1]}]}`,
		`{"inputs":[{"data":[1],"data":[2]}]}`,
		`{"inputs":[{"data":[1],"DATA":[2]}]}`,
		`{"parameters":{"route":"a"},"parameters":{"other":"b"}}`,
		`{"parameters":{"route":"a","route":null,"k":"v"}}`,
		`{"parameters":{"route":1}}`,
		`{"ID":"a","INPUTS":[{"Name":"x","DATATYPE":"FP32","\u017fhape":[1],"D\u0041TA":[1E+02]}],"Parameters":{"route":"b"}}`,
		`{"id":"\ud800\u00e9\"<&>","inputs":[{"name":"\u0000","datatype":"F\u0050\u0033\u0032","data":[1]}]}`,
		"{\"id\":\"\xff\xfe\",\"inputs\":null}",
		"{\"id\":\"a\tb\"}",
		`{"id":"\x"}`, `{"id":"\u12"}`, `{"id":"abc`, `{"id":5}`, `{"id":true}`, `{"inputs":{}}`, `{"inputs":[5]}`,
		`null`, ` null `, `[]`, `"x"`, `5`, ``, ` `, `{}`, `{"inputs":null}`, `{,}`, `{"a" 1}`, `{"a":1,}`,
		`{"inputs":[]} {"garbage":`, `{"inputs":[{"name":"input","data":[1,2,3]}]}]]]`, `{"inputs":[]}` + "\n\t ",
		"\xef\xbb\xbf{}",
	} {
		f.Add([]byte(seed), int64(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, seed int64) {
		var std v2InferRequest
		stdErr := json.Unmarshal(body, &std)
		got, err := parseInferBody(body)
		if err == nil {
			defer got.release()
			if stdErr != nil {
				t.Fatalf("decoder accepted %q, encoding/json refused it: %v", body, stdErr)
			}
			requireSameRequest(t, body, got, std)
		}
		if stdErr == nil {
			roundTripRequest(t, std)
		}
		roundTripRequest(t, randomInferRequest(rand.New(rand.NewSource(seed))))
	})
}

// FuzzScanNumber throws arbitrary bytes at scanNumber at an arbitrary
// offset: end must be the longest match of the JSON number grammar (or -1
// for none), and whenever the exact path takes a literal its value must be
// strconv.ParseFloat's, bit for bit.
func FuzzScanNumber(f *testing.F) {
	seeds := slices.Clone(scanNumberEdges)
	for _, x := range []float64{1, 0.1, 1.0 / 3, 1e23, 9007199254740992, 5e-324, 1e-300, math.MaxFloat32, float64(float32(0.1))} {
		seeds = append(seeds, halfway(x, 25), halfway(x, 18), halfway(-x, 16))
	}
	for _, s := range seeds {
		f.Add([]byte(s), 0)
		f.Add([]byte(`[`+s+`,`), 1)
	}
	f.Fuzz(func(t *testing.T, b []byte, off int) {
		checkScanNumber(t, b, int(uint(off)%uint(len(b)+1)))
	})
}

// roundTripRequest marshals req and requires the decoder to read it back
// bit for bit.
func roundTripRequest(t *testing.T, req v2InferRequest) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal %+v: %v", req, err)
	}
	got, err := parseInferBody(body)
	if err != nil {
		t.Fatalf("decoder refused json.Marshal output %q: %v", body, err)
	}
	defer got.release()
	requireSameRequest(t, body, got, req)
}

// requireSameRequest compares a decoded body with encoding/json's reading
// of it: nil and empty compare equal, floats compare by their bits.
func requireSameRequest(t *testing.T, body []byte, got inferBody, want v2InferRequest) {
	t.Helper()
	if got.ID != want.ID || !maps.Equal(got.Parameters, want.Parameters) || len(got.Inputs) != len(want.Inputs) {
		t.Fatalf("body %q: decoded id %q params %v inputs %d; encoding/json id %q params %v inputs %d",
			body, got.ID, got.Parameters, len(got.Inputs), want.ID, want.Parameters, len(want.Inputs))
	}
	for k, g := range got.Inputs {
		w := want.Inputs[k]
		if g.Name != w.Name || g.Datatype != w.Datatype || !slices.Equal(g.Shape, w.Shape) ||
			!slices.EqualFunc(g.Data, w.Data, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("body %q: input %d decoded %+v, encoding/json %+v", body, k, g, w)
		}
	}
}

// hardFloats are the values a float parser most often gets wrong.
var hardFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308,
	1e308, -1e308, math.MaxFloat64, -math.MaxFloat64, 1e23, 8.41e21, 0.1, 1.0 / 3, 100, 1e-7, 123456789012345680,
	9007199254740993, float64(float32(0.1)), math.SmallestNonzeroFloat32, math.MaxFloat32,
}

// randomInferRequest draws a request json.Marshal can render: strings
// with escapes and non-ASCII runes, negative and large shapes, and data
// mixing hardFloats with random finite bit patterns.
func randomInferRequest(rng *rand.Rand) v2InferRequest {
	str := func() string {
		runes := []rune("ab\"\\/<>&\u2028é\x00\x1f\t\U0001F600\uFFFD")
		s := make([]rune, rng.Intn(6))
		for i := range s {
			s[i] = runes[rng.Intn(len(runes))]
		}
		return string(s)
	}
	var req v2InferRequest
	req.ID = str()
	if rng.Intn(2) == 0 {
		req.Parameters = map[string]string{"route": str(), str(): str()}
	}
	for range rng.Intn(3) {
		t := v2Tensor{Name: str(), Datatype: []string{"", "FP32", "INT8"}[rng.Intn(3)]}
		for range rng.Intn(5) {
			t.Shape = append(t.Shape, rng.Intn(2000)-10)
		}
		if rng.Intn(8) == 0 {
			t.Shape = append(t.Shape, math.MaxInt64)
		}
		for range rng.Intn(40) {
			v := hardFloats[rng.Intn(len(hardFloats))]
			if rng.Intn(2) == 0 {
				v = math.Float64frombits(rng.Uint64())
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = -0.0
			}
			t.Data = append(t.Data, v)
		}
		req.Inputs = append(req.Inputs, t)
	}
	return req
}

// TestInferDecodeDivergences lists every body the decoder refuses that
// json.Unmarshal into v2InferRequest accepts (docs/API.md, "Infer request
// body"): a member the request or a tensor defines may appear only once
// per object, in any case spelling. encoding/json would let the last one
// win, or, for inputs, merge the repeats element by element.
func TestInferDecodeDivergences(t *testing.T) {
	for _, body := range []string{
		`{"id":"a","id":"b","inputs":[]}`,
		`{"id":"a","ID":"b"}`,
		`{"inputs":[],"inputs":[{"data":[1]}]}`,
		`{"parameters":{"route":"a"},"Parameters":{"other":"b"}}`,
		`{"inputs":[{"name":"a","name":"b","data":[1]}]}`,
		`{"inputs":[{"datatype":"FP32","datatype":"INT8","data":[1]}]}`,
		`{"inputs":[{"shape":[1],"shape":[1],"data":[1]}]}`,
		`{"inputs":[{"data":[1],"data":[2]}]}`,
		`{"inputs":[{"data":[1],"D\u0041TA":[2]}]}`,
	} {
		var std v2InferRequest
		if err := json.Unmarshal([]byte(body), &std); err != nil {
			t.Fatalf("%s: encoding/json refuses it (%v), so it is no divergence", body, err)
		}
		if got, err := parseInferBody([]byte(body)); err == nil {
			got.release()
			t.Errorf("%s: decoder accepted a repeated member", body)
		}
	}
	// Nesting: encoding/json's limit of 10000 levels, exactly.
	nest := func(levels int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", levels-1) + strings.Repeat("]", levels-1) + `}`)
	}
	for levels, ok := range map[int]bool{maxJSONDepth: true, maxJSONDepth + 1: false} {
		var std v2InferRequest
		stdErr := json.Unmarshal(nest(levels), &std)
		got, err := parseInferBody(nest(levels))
		if (stdErr == nil) != ok || (err == nil) != ok {
			t.Errorf("%d levels: encoding/json error %v, decoder error %v, want ok=%v", levels, stdErr, err, ok)
		}
		if err == nil {
			got.release()
		}
	}
}

// FuzzGraphPut throws arbitrary bytes at PUT /v2/graphs/{name} on a
// server with two small zoo models loaded. It must never panic; a refusal
// is a 4xx with a JSON error body; and an accepted spec is what GET
// /v2/graphs/{name} returns, and validates again when PUT a second time.
func FuzzGraphPut(f *testing.F) {
	for _, seed := range []string{
		`{"root":{"kind":"model","model":"DSCNN-S"}}`,
		`{"name":"g","root":{"kind":"cascade","threshold":0.7,"children":[{"kind":"model","model":"DSCNN-S"},{"kind":"model","model":"MicroNet-KWS-S"}]}}`,
		`{"root":{"kind":"ensemble","children":[{"kind":"model","model":"DSCNN-S"},{"kind":"model","model":"MicroNet-KWS-S"}]}}`,
		`{"root":{"kind":"splitter","children":[{"kind":"model","model":"DSCNN-S","weight":1},{"kind":"model","model":"MicroNet-KWS-S","weight":3}]}}`,
		`{"root":{"kind":"switch","children":[{"kind":"model","model":"DSCNN-S","when":"a"},{"kind":"model","model":"MicroNet-KWS-S"}]}}`,
		`{"root":{"kind":"sequence","children":[{"kind":"model","model":"DSCNN-S"}]}}`,
		`{"root":{"kind":"model","model":"DSCNN-S","version":99}}`,
		`{"root":{"kind":"model","model":"NoSuchModel"}}`,
		`{"root":{"kind":"cascade"}}`,
		`{"name":"other","root":{"kind":"model","model":"DSCNN-S"}}`,
		`{"root":{"kind":"model","model":"DSCNN-S"}} {"garbage":`,
		`{"root":{"kind":"model","model":"DSCNN-S"}}]]]`,
		`{}`, `null`, `[]`, ``, `{"root":null}`, `{"root":{"kind":"model","model":"DSCNN-S","children":[null]}}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{Models: testModels, Options: ModelOptions{Seed: 42, AppendSoftmax: true}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	do := func(method string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/v2/graphs/fuzz", bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := do(http.MethodPut, body)
		if rec.Code != http.StatusOK {
			var e v2Error
			if rec.Code < 400 || rec.Code > 499 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
				t.Fatalf("PUT %q: refusal answered %d %q, want a 4xx with a JSON error body", body, rec.Code, rec.Body)
			}
			return
		}
		var want servegraph.Spec
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("PUT %q answered 200, but the body is no spec: %v", body, err)
		}
		want.Name = "fuzz"
		got := do(http.MethodGet, nil)
		var view struct {
			Spec json.RawMessage `json:"spec"`
		}
		if got.Code != http.StatusOK || json.Unmarshal(got.Body.Bytes(), &view) != nil {
			t.Fatalf("GET after accepted PUT %q: %d %q", body, got.Code, got.Body)
		}
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(view.Spec, wantJSON) {
			t.Fatalf("GET returned spec %s, PUT %q registered %s", view.Spec, body, wantJSON)
		}
		if again := do(http.MethodPut, view.Spec); again.Code != http.StatusOK {
			t.Fatalf("re-PUT of the accepted spec %s: %d %q", view.Spec, again.Code, again.Body)
		}
	})
}
