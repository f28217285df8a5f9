package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	"micronets/internal/graph"
)

// decodeLayouts are the input tensors of the two served shapes the codec
// is measured on: MicroNet-VWW-1 (160×160×1, 25,600 values, a ~500 KB
// body) and MicroNet-KWS-S (49×10×1, 490 values).
var decodeLayouts = []struct {
	name   string
	layout *graph.Tensor
}{
	{"vww1-25600", &graph.Tensor{H: 160, W: 160, C: 1, Bits: 8, Scale: 0.0078, ZeroPoint: -1}},
	{"kws-s-490", &graph.Tensor{H: 49, W: 10, C: 1, Bits: 8, Scale: 0.05, ZeroPoint: 5}},
}

// fp32Body renders one FP32 row of elems values the way a client does:
// float32-rounded normals through json.Marshal.
func fp32Body(elems int) []byte {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, elems)
	for i := range data {
		data[i] = float64(float32(rng.NormFloat64()))
	}
	body, err := json.Marshal(v2InferRequest{Inputs: []v2Tensor{{Name: "input", Datatype: "FP32", Data: data}}})
	if err != nil {
		panic(err)
	}
	return body
}

// decodeAndQuantize is what the decode histogram times in handleInfer:
// body read, parse and quantize of every row, then the release.
func decodeAndQuantize(tb testing.TB, body []byte, layout *graph.Tensor) {
	rec := httptest.NewRecorder()
	req, n, ok := decodeInfer(rec, httptest.NewRequest("POST", "/v2/models/m/infer", bytes.NewReader(body)), layout, "model m")
	if !ok {
		tb.Fatalf("decode refused: %d %s", rec.Code, rec.Body)
	}
	in, elems := req.Inputs[0], layout.Elems()
	for b := range n {
		if _, err := quantizeRow(layout, in.Datatype, in.Data[b*elems:(b+1)*elems]); err != nil {
			tb.Fatal(err)
		}
	}
	req.release()
}

// BenchmarkDecodeInfer times decodeInfer plus quantizeRow on one FP32 row
// of a VWW-1- and a KWS-S-sized body (SetBytes: MB/s is body bytes).
func BenchmarkDecodeInfer(b *testing.B) {
	for _, c := range decodeLayouts {
		body := fp32Body(c.layout.Elems())
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				decodeAndQuantize(b, body, c.layout)
			}
		})
	}
}

// TestDecodeInferAllocsFlat: decoding allocates per request, never per
// value — a 25,600-value body costs at most two allocations more than a
// 490-value one. The garbage collector is off for the count so the pooled
// buffers survive between runs, as they do between requests at load.
func TestDecodeInferAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := make([]float64, len(decodeLayouts))
	for i, c := range decodeLayouts {
		body := fp32Body(c.layout.Elems())
		allocs[i] = testing.AllocsPerRun(20, func() { decodeAndQuantize(t, body, c.layout) })
	}
	if large, small := allocs[0], allocs[1]; large > small+2 {
		t.Fatalf("decode allocates %.0f objects for 25,600 values vs %.0f for 490: per-value allocations crept in", large, small)
	}
}
