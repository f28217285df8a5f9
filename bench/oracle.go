package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"micronets/internal/graph"
	"micronets/internal/kernels"
	"micronets/internal/serve"
	"micronets/internal/servegraph"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// serveOptions is the lowering every benchmark server uses: cmd/serve's
// defaults. The oracle lowers with the same seed and options, so its
// weights are bit-identical to the servers'.
var serveOptions = serve.ModelOptions{WeightBits: 8, ActBits: 8, Seed: 42, AppendSoftmax: true}

// lowerZoo lowers a zoo model exactly as a serve.Repository would.
func lowerZoo(name string) (*graph.Model, error) {
	e, err := zoo.Get(name)
	if err != nil {
		return nil, err
	}
	if e.Spec == nil {
		return nil, fmt.Errorf("zoo model %s has no architecture", name)
	}
	return graph.FromSpec(e.Spec, rand.New(rand.NewSource(serveOptions.Seed)), graph.LowerOptions{
		WeightBits: serveOptions.WeightBits, ActBits: serveOptions.ActBits, AppendSoftmax: serveOptions.AppendSoftmax,
	})
}

// refModel answers rows outside the system under test: its own lowering
// of the model, run on the naive reference kernels, with the harness's
// own FP32 quantisation and dequantisation.
type refModel struct {
	name  string
	model *graph.Model
	ip    *tflm.Interpreter
}

func newRefModel(name string, eng kernels.Engine) (*refModel, error) {
	m, err := lowerZoo(name)
	if err != nil {
		return nil, err
	}
	ip, err := tflm.NewInterpreterWithEngine(m, 0, eng)
	if err != nil {
		return nil, err
	}
	return &refModel{name: name, model: m, ip: ip}, nil
}

// quantize maps an FP32 row into the model's int8 input domain.
func (r *refModel) quantize(row []float64) []int8 {
	in := r.model.Tensors[r.model.Input]
	q := make([]int8, len(row))
	for i, v := range row {
		x := math.Round(v/float64(in.Scale)) + float64(in.ZeroPoint)
		q[i] = int8(math.Max(-128, math.Min(127, x)))
	}
	return q
}

// answer is the expected reply for one row.
type answer struct {
	scores      []float64
	class       int
	servedBy    string // graph workloads only
	escalations int
}

// infer runs one FP32 row and returns the dequantised scores and the
// argmax class (first maximum wins, as the server breaks ties).
func (r *refModel) infer(row []float64) (answer, error) {
	copy(r.ip.Input(), r.quantize(row))
	if err := r.ip.Invoke(); err != nil {
		return answer{}, err
	}
	out := r.model.Tensors[r.model.Output]
	a := answer{scores: make([]float64, len(r.ip.Output()))}
	best := int8(math.MinInt8)
	for i, q := range r.ip.Output() {
		a.scores[i] = float64(out.Scale) * float64(int32(q)-out.ZeroPoint)
		if i == 0 || q > best {
			best, a.class = q, i
		}
	}
	return a, nil
}

// confidence is the top softmax probability, the cascade gate's test.
func (a answer) confidence() float64 { return a.scores[a.class] }

// request is one pre-encoded request body with its expected reply, one
// answer per row.
type request struct {
	rows [][]float64
	body []byte
	want []answer
}

// randomRow draws one input row. Values are rounded through float32 so
// the JSON text, the server's float64 and the oracle agree exactly.
func randomRow(rng *rand.Rand, elems int) []float64 {
	row := make([]float64, elems)
	for i := range row {
		row[i] = float64(float32(rng.NormFloat64()))
	}
	return row
}

// encodeBody renders rows as one v2 infer body with a leading batch
// dimension.
func encodeBody(m *graph.Model, rows [][]float64) ([]byte, error) {
	in := m.Tensors[m.Input]
	data := make([]float64, 0, len(rows)*in.Elems())
	for _, r := range rows {
		data = append(data, r...)
	}
	return json.Marshal(map[string]any{
		"inputs": []map[string]any{{
			"name": "input", "datatype": "FP32",
			"shape": []int{len(rows), in.H, in.W, in.C}, "data": data,
		}},
	})
}

// modelRequests builds n single-row requests for one model with their
// reference answers.
func modelRequests(model string, n int, rng *rand.Rand) ([]request, error) {
	ref, err := newRefModel(model, kernels.Reference)
	if err != nil {
		return nil, err
	}
	reqs := make([]request, n)
	for i := range reqs {
		row := randomRow(rng, ref.model.Tensors[ref.model.Input].Elems())
		want, err := ref.infer(row)
		if err != nil {
			return nil, err
		}
		body, err := encodeBody(ref.model, [][]float64{row})
		if err != nil {
			return nil, err
		}
		reqs[i] = request{rows: [][]float64{row}, body: body, want: []answer{want}}
	}
	return reqs, nil
}

// Cascade request shape: every body holds exactly escPerBody rows the
// gate declines and rowsPerBody-escPerBody rows it answers, so request
// latency is unimodal and servegraph.escalation_share is exactly 0.25.
const (
	rowsPerBody = 8
	escPerBody  = 2
	// thresholdGuard discards probe rows whose gate confidence is this
	// close to the threshold; the softmax output quantum is 1/256.
	thresholdGuard = 0.003
)

// cascadeRequests probes the gate with seeded rows, sets the threshold at
// the 25th percentile of its confidence, and assembles n bodies from a
// pool of rows that clearly escalate and rows that clearly do not. It
// returns the graph spec to register alongside.
func cascadeRequests(gate, big string, n, probeRows int, rng *rand.Rand) ([]request, *servegraph.Spec, error) {
	fast, err := newRefModel(gate, kernels.Default)
	if err != nil {
		return nil, nil, err
	}
	elems := fast.model.Tensors[fast.model.Input].Elems()
	rows := make([][]float64, probeRows)
	conf := make([]float64, probeRows)
	for i := range rows {
		rows[i] = randomRow(rng, elems)
		a, err := fast.infer(rows[i])
		if err != nil {
			return nil, nil, err
		}
		conf[i] = a.confidence()
	}
	sorted := append([]float64(nil), conf...)
	sort.Float64s(sorted)
	threshold := sorted[len(sorted)/4]

	// Pools of distinct rows, reference-answered once each: the escalating
	// ones cost a MicroNet-KWS-L reference invoke, so keep that pool small.
	escPool, confPool := max(escPerBody, n/2), max(rowsPerBody-escPerBody, n*3/2)
	gateRef, err := newRefModel(gate, kernels.Reference)
	if err != nil {
		return nil, nil, err
	}
	bigRef, err := newRefModel(big, kernels.Reference)
	if err != nil {
		return nil, nil, err
	}
	type pooled struct {
		row  []float64
		want answer
	}
	var esc, confident []pooled
	for i, row := range rows {
		escalates := conf[i] < threshold-thresholdGuard
		answers := conf[i] > threshold+thresholdGuard
		if (!escalates || len(esc) >= escPool) && (!answers || len(confident) >= confPool) {
			continue
		}
		want, err := gateRef.infer(row)
		if err != nil {
			return nil, nil, err
		}
		if want.confidence() != conf[i] {
			return nil, nil, fmt.Errorf("gate %s: reference confidence %v, default engine %v on probe row %d", gate, want.confidence(), conf[i], i)
		}
		want.servedBy = gate
		if escalates {
			if want, err = bigRef.infer(row); err != nil {
				return nil, nil, err
			}
			want.servedBy, want.escalations = big, 1
			esc = append(esc, pooled{row, want})
		} else {
			confident = append(confident, pooled{row, want})
		}
	}
	if len(esc) < escPerBody || len(confident) < rowsPerBody-escPerBody {
		return nil, nil, fmt.Errorf("cascade probe of %d rows found %d escalating and %d confident rows around threshold %v; need %d and %d",
			probeRows, len(esc), len(confident), threshold, escPerBody, rowsPerBody-escPerBody)
	}

	reqs := make([]request, n)
	for i := range reqs {
		picked := make([]pooled, 0, rowsPerBody)
		for _, j := range rng.Perm(len(esc))[:escPerBody] {
			picked = append(picked, esc[j])
		}
		for _, j := range rng.Perm(len(confident))[:rowsPerBody-escPerBody] {
			picked = append(picked, confident[j])
		}
		rng.Shuffle(len(picked), func(a, b int) { picked[a], picked[b] = picked[b], picked[a] })
		for _, p := range picked {
			reqs[i].rows = append(reqs[i].rows, p.row)
			reqs[i].want = append(reqs[i].want, p.want)
		}
		if reqs[i].body, err = encodeBody(fast.model, reqs[i].rows); err != nil {
			return nil, nil, err
		}
	}
	spec := &servegraph.Spec{
		Name:        cascadeGraph,
		Description: "benchmark cascade: small gate, large fallback",
		Root: &servegraph.NodeSpec{
			Kind: servegraph.KindCascade, Threshold: threshold,
			Children: []*servegraph.NodeSpec{
				{Kind: servegraph.KindModel, Model: gate},
				{Kind: servegraph.KindModel, Model: big},
			},
		},
	}
	return reqs, spec, nil
}

// inferReply is the part of a model- or graph-infer response the oracle
// checks.
type inferReply struct {
	Outputs []struct {
		Name string    `json:"name"`
		Data []float64 `json:"data"`
	} `json:"outputs"`
	ServedBy    []string `json:"served_by"`
	Escalations []int    `json:"escalations"`
}

// check compares one response body with the expected answers: class and
// every score bit-for-bit, and for graph replies the answering leaf and
// escalation count of each row.
func (rq *request) check(body []byte, graphReply bool) error {
	var rep inferReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	var scores, classes []float64
	for _, o := range rep.Outputs {
		switch o.Name {
		case "scores":
			scores = o.Data
		case "class":
			classes = o.Data
		}
	}
	if len(classes) != len(rq.want) {
		return fmt.Errorf("reply has %d rows, want %d", len(classes), len(rq.want))
	}
	per := len(rq.want[0].scores)
	if len(scores) != per*len(rq.want) {
		return fmt.Errorf("reply has %d scores, want %d", len(scores), per*len(rq.want))
	}
	escalations := 0
	for i, w := range rq.want {
		if int(classes[i]) != w.class {
			return fmt.Errorf("row %d: class %v, want %d", i, classes[i], w.class)
		}
		for j, s := range w.scores {
			if scores[i*per+j] != s {
				return fmt.Errorf("row %d: score %d is %v, want %v", i, j, scores[i*per+j], s)
			}
		}
		if !graphReply {
			continue
		}
		if len(rep.ServedBy) != len(rq.want) || len(rep.Escalations) != len(rq.want) {
			return fmt.Errorf("graph reply lacks served_by/escalations for %d rows", len(rq.want))
		}
		if rep.ServedBy[i] != w.servedBy || rep.Escalations[i] != w.escalations {
			return fmt.Errorf("row %d: served by %s after %d escalations, want %s after %d",
				i, rep.ServedBy[i], rep.Escalations[i], w.servedBy, w.escalations)
		}
		escalations += rep.Escalations[i]
	}
	if graphReply && escalations != escPerBody {
		return fmt.Errorf("request escalated %d rows, want exactly %d", escalations, escPerBody)
	}
	return nil
}
