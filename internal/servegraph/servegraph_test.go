package servegraph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// fakeBackend serves canned probability vectors keyed by model name. The
// input row's first element can select among several canned answers per
// model, so one test can steer a cascade's confidence per request.
type fakeBackend struct {
	models map[string]*fakeModel
}

type fakeModel struct {
	info ModelInfo
	// answers[k] is returned when round(x[0]) == k; answers[0] is the
	// default. Values are probabilities (Softmax=true) or logits.
	answers map[int][]float64
	err     error
	calls   int
}

func (b *fakeBackend) ModelInfo(name string) (ModelInfo, error) {
	m, ok := b.models[name]
	if !ok {
		return ModelInfo{}, fmt.Errorf("no model %q", name)
	}
	return m.info, nil
}

func (b *fakeBackend) Infer(_ context.Context, name string, x []float64) (Scored, error) {
	m, ok := b.models[name]
	if !ok {
		return Scored{}, fmt.Errorf("no model %q", name)
	}
	m.calls++
	if m.err != nil {
		return Scored{}, m.err
	}
	key := 0
	if len(x) > 0 {
		key = int(math.Round(x[0]))
	}
	scores, ok := m.answers[key]
	if !ok {
		scores = m.answers[0]
	}
	probs := scores
	if !m.info.Softmax {
		probs = Softmax(scores)
	}
	return Scored{Model: name, Version: m.info.Version, Scores: scores, Probs: probs}, nil
}

// newFake builds a backend with softmaxed 3-class models "small", "large",
// and "other" sharing a 2x2x1 input.
func newFake() *fakeBackend {
	mk := func(name string, version int, answers map[int][]float64) *fakeModel {
		return &fakeModel{
			info: ModelInfo{Name: name, Version: version, Task: "kws",
				InputH: 2, InputW: 2, InputC: 1, OutputElems: 3, Softmax: true},
			answers: answers,
		}
	}
	return &fakeBackend{models: map[string]*fakeModel{
		// small is confident (0.9) on input key 0, unsure (0.4) on key 1.
		"small": mk("small", 1, map[int][]float64{
			0: {0.9, 0.05, 0.05},
			1: {0.4, 0.35, 0.25},
		}),
		"large": mk("large", 1, map[int][]float64{
			0: {0.05, 0.9, 0.05},
			1: {0.1, 0.8, 0.1},
		}),
		"other": mk("other", 3, map[int][]float64{
			0: {0.2, 0.2, 0.6},
		}),
	}}
}

func leaf(model string) *NodeSpec { return &NodeSpec{Kind: KindModel, Model: model} }

func mustPut(t *testing.T, r *Registry, spec *Spec) *Graph {
	t.Helper()
	g, err := r.Put(spec)
	if err != nil {
		t.Fatalf("Put(%s): %v", spec.Name, err)
	}
	return g
}

// row returns a 4-element input whose first value selects the canned
// answer in fakeModel.answers.
func row(key int) []float64 { return []float64{float64(key), 0, 0, 0} }

func TestCascadeGateAndEscalation(t *testing.T) {
	fb := newFake()
	r := NewRegistry(fb)
	g := mustPut(t, r, &Spec{Name: "cas", Root: &NodeSpec{
		Kind: KindCascade, Name: "casnode", Threshold: 0.7,
		Children: []*NodeSpec{leaf("small"), leaf("large")},
	}})

	// Key 0: small answers with 0.9 >= 0.7 — the gate holds.
	res, err := g.Infer(context.Background(), row(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "small" || res.Class != 0 || res.Escalations != 0 {
		t.Fatalf("confident input: got served_by=%q class=%d esc=%d", res.ServedBy, res.Class, res.Escalations)
	}

	// Key 1: small is at 0.4 < 0.7 — the request escalates to large.
	res, err = g.Infer(context.Background(), row(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "large" || res.Class != 1 || res.Escalations != 1 {
		t.Fatalf("hard input: got served_by=%q class=%d esc=%d", res.ServedBy, res.Class, res.Escalations)
	}
	if fb.models["large"].calls != 1 {
		t.Fatalf("large ran %d times, want 1 (only the escalated request)", fb.models["large"].calls)
	}

	// Gate-hit-rate arithmetic: 3 easy + 1 hard so far-minus-the-two-above
	// — drive totals to 4 easy, 2 hard and check the counters exactly.
	for i := 0; i < 3; i++ {
		if _, err := g.Infer(context.Background(), row(0), ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Infer(context.Background(), row(1), ""); err != nil {
		t.Fatal(err)
	}
	var cas NodeStats
	for _, n := range g.Stats().Nodes {
		if n.Kind == KindCascade {
			cas = n
		}
	}
	if cas.Node != "casnode" {
		t.Fatalf("cascade node stats missing: %+v", g.Stats().Nodes)
	}
	if cas.Requests != 6 || cas.GateHits != 4 || cas.Escalations != 2 {
		t.Fatalf("cascade counters: requests=%d gate_hits=%d escalations=%d, want 6/4/2",
			cas.Requests, cas.GateHits, cas.Escalations)
	}
	if rate := float64(cas.GateHits) / float64(cas.Requests); math.Abs(rate-4.0/6.0) > 1e-12 {
		t.Fatalf("gate-hit rate %v, want 4/6", rate)
	}
}

func TestCascadeChildThresholdOverride(t *testing.T) {
	r := NewRegistry(newFake())
	// Child override 0.3: small's 0.4 clears it even though the node-level
	// threshold (0.95) would escalate.
	g := mustPut(t, r, &Spec{Name: "cas-override", Root: &NodeSpec{
		Kind: KindCascade, Threshold: 0.95,
		Children: []*NodeSpec{
			{Kind: KindModel, Model: "small", Threshold: 0.3},
			leaf("large"),
		},
	}})
	res, err := g.Infer(context.Background(), row(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "small" {
		t.Fatalf("served_by=%q, want small (child threshold 0.3 beats node 0.95)", res.ServedBy)
	}
}

func TestEnsembleAveraging(t *testing.T) {
	r := NewRegistry(newFake())
	g := mustPut(t, r, &Spec{Name: "ens", Root: &NodeSpec{
		Kind:     KindEnsemble,
		Children: []*NodeSpec{leaf("small"), leaf("large"), leaf("other")},
	}})
	res, err := g.Infer(context.Background(), row(0), "")
	if err != nil {
		t.Fatal(err)
	}
	// Hand-computed elementwise mean of the three canned vectors.
	want := []float64{(0.9 + 0.05 + 0.2) / 3, (0.05 + 0.9 + 0.2) / 3, (0.05 + 0.05 + 0.6) / 3}
	for i, w := range want {
		if math.Abs(res.Scores[i]-w) > 1e-12 {
			t.Fatalf("ensemble scores[%d] = %v, want %v", i, res.Scores[i], w)
		}
	}
	if res.Class != 0 {
		t.Fatalf("ensemble class %d, want 0 (0.3833 is the max mean)", res.Class)
	}
	parts := strings.Split(res.ServedBy, "+")
	sort.Strings(parts)
	if strings.Join(parts, "+") != "large+other+small" {
		t.Fatalf("served_by %q, want all three members", res.ServedBy)
	}
}

func TestEnsembleMixesLogitAndSoftmaxMembers(t *testing.T) {
	fb := newFake()
	// logit emits raw logits; its probability view must be softmaxed
	// before averaging with the probability-domain members.
	logits := []float64{2, 1, 0}
	fb.models["logit"] = &fakeModel{
		info: ModelInfo{Name: "logit", Version: 1, InputH: 2, InputW: 2, InputC: 1,
			OutputElems: 3, Softmax: false},
		answers: map[int][]float64{0: logits},
	}
	r := NewRegistry(fb)
	g := mustPut(t, r, &Spec{Name: "mix", Root: &NodeSpec{
		Kind:     KindEnsemble,
		Children: []*NodeSpec{leaf("small"), leaf("logit")},
	}})
	res, err := g.Infer(context.Background(), row(0), "")
	if err != nil {
		t.Fatal(err)
	}
	sm := Softmax(logits)
	for i := range sm {
		want := (sm[i] + []float64{0.9, 0.05, 0.05}[i]) / 2
		if math.Abs(res.Probs[i]-want) > 1e-12 {
			t.Fatalf("probs[%d] = %v, want %v (softmax applied to logit member)", i, res.Probs[i], want)
		}
	}
}

func TestSplitterDistribution(t *testing.T) {
	r := NewRegistry(newFake())
	g := mustPut(t, r, &Spec{Name: "split", Seed: 7, Root: &NodeSpec{
		Kind: KindSplitter,
		Children: []*NodeSpec{
			{Kind: KindModel, Model: "small", Name: "arm-small", Weight: 9},
			{Kind: KindModel, Model: "large", Name: "arm-large", Weight: 1},
		},
	}})
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := g.Infer(context.Background(), row(0), ""); err != nil {
			t.Fatal(err)
		}
	}
	picks := map[string]uint64{}
	var weights = map[string]float64{}
	for _, ns := range g.Stats().Nodes {
		if ns.Picks > 0 || ns.Weight > 0 {
			picks[ns.Node] = ns.Picks
			weights[ns.Node] = ns.Weight
		}
	}
	if math.Abs(weights["arm-small"]-0.9) > 1e-12 || math.Abs(weights["arm-large"]-0.1) > 1e-12 {
		t.Fatalf("normalized weights %v, want 0.9/0.1", weights)
	}
	if picks["arm-small"]+picks["arm-large"] != n {
		t.Fatalf("picks sum %d, want %d", picks["arm-small"]+picks["arm-large"], n)
	}
	// Seeded RNG: the split must land near 90/10. ±3σ for Binomial(2000,
	// 0.9) is ~±40; allow ±60 so the test is deterministic-seed-proof.
	got := float64(picks["arm-small"])
	if math.Abs(got-0.9*n) > 60 {
		t.Fatalf("arm-small picked %v of %d times, want ~%v", got, n, 0.9*n)
	}
}

func TestSplitterSeedReproducible(t *testing.T) {
	run := func() []uint64 {
		r := NewRegistry(newFake())
		g := mustPut(t, r, &Spec{Name: "split", Seed: 42, Root: &NodeSpec{
			Kind: KindSplitter,
			Children: []*NodeSpec{
				{Kind: KindModel, Model: "small", Weight: 1},
				{Kind: KindModel, Model: "large", Weight: 1},
			},
		}})
		for i := 0; i < 100; i++ {
			if _, err := g.Infer(context.Background(), row(0), ""); err != nil {
				t.Fatal(err)
			}
		}
		var out []uint64
		for _, ns := range g.Stats().Nodes {
			if ns.Kind == KindModel {
				out = append(out, ns.Picks)
			}
		}
		return out
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different pick sequences: %v vs %v", a, b)
	}
}

func TestSwitchRouting(t *testing.T) {
	r := NewRegistry(newFake())
	g := mustPut(t, r, &Spec{Name: "sw", Root: &NodeSpec{
		Kind: KindSwitch,
		Children: []*NodeSpec{
			{Kind: KindModel, Model: "large", When: "accurate"},
			{Kind: KindModel, Model: "small"}, // default arm
		},
	}})
	res, err := g.Infer(context.Background(), row(0), "accurate")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "large" {
		t.Fatalf("route=accurate served by %q, want large", res.ServedBy)
	}
	res, err = g.Infer(context.Background(), row(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "small" {
		t.Fatalf("default route served by %q, want small", res.ServedBy)
	}
	res, err = g.Infer(context.Background(), row(0), "no-such-arm")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "small" {
		t.Fatalf("unknown route served by %q, want the default arm", res.ServedBy)
	}
}

func TestSwitchWithoutDefaultRejectsUnknownRoute(t *testing.T) {
	r := NewRegistry(newFake())
	g := mustPut(t, r, &Spec{Name: "sw2", Root: &NodeSpec{
		Kind: KindSwitch,
		Children: []*NodeSpec{
			{Kind: KindModel, Model: "large", When: "accurate"},
		},
	}})
	_, err := g.Infer(context.Background(), row(0), "nope")
	var re *RouteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RouteError", err)
	}
}

func TestSequenceLastAnswerWins(t *testing.T) {
	fb := newFake()
	r := NewRegistry(fb)
	g := mustPut(t, r, &Spec{Name: "seq", Root: &NodeSpec{
		Kind:     KindSequence,
		Children: []*NodeSpec{leaf("small"), leaf("large")},
	}})
	res, err := g.Infer(context.Background(), row(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != "large" || res.Class != 1 {
		t.Fatalf("sequence answered by %q class %d, want large/1", res.ServedBy, res.Class)
	}
	if fb.models["small"].calls != 1 {
		t.Fatalf("small ran %d times, want 1 (every step runs)", fb.models["small"].calls)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		code string
	}{
		{"dangling model", &Spec{Name: "g", Root: leaf("no-such-model")}, "unknown_model"},
		{"version mismatch", &Spec{Name: "g", Root: &NodeSpec{Kind: KindModel, Model: "other", Version: 2}}, "version_mismatch"},
		{"no root", &Spec{Name: "g"}, "invalid_graph"},
		{"no name", &Spec{Root: leaf("small")}, "invalid_graph"},
		{"bad name", &Spec{Name: "a b", Root: leaf("small")}, "invalid_graph"},
		{"unknown kind", &Spec{Name: "g", Root: &NodeSpec{Kind: "parliament", Children: []*NodeSpec{leaf("small")}}}, "invalid_graph"},
		{"childless cascade", &Spec{Name: "g", Root: &NodeSpec{Kind: KindCascade}}, "invalid_graph"},
		{"model with children", &Spec{Name: "g", Root: &NodeSpec{Kind: KindModel, Model: "small", Children: []*NodeSpec{leaf("large")}}}, "invalid_graph"},
		{"threshold out of range", &Spec{Name: "g", Root: &NodeSpec{Kind: KindCascade, Threshold: 1.5, Children: []*NodeSpec{leaf("small"), leaf("large")}}}, "invalid_graph"},
		{"negative weight", &Spec{Name: "g", Root: &NodeSpec{Kind: KindSplitter, Children: []*NodeSpec{{Kind: KindModel, Model: "small", Weight: -1}, leaf("large")}}}, "invalid_graph"},
		{"duplicate switch arm", &Spec{Name: "g", Root: &NodeSpec{Kind: KindSwitch, Children: []*NodeSpec{
			{Kind: KindModel, Model: "small", When: "x"}, {Kind: KindModel, Model: "large", When: "x"}}}}, "invalid_graph"},
		{"two default arms", &Spec{Name: "g", Root: &NodeSpec{Kind: KindSwitch, Children: []*NodeSpec{
			leaf("small"), leaf("large")}}}, "invalid_graph"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry(newFake())
			_, err := r.Put(tc.spec)
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("err = %v, want ValidationError", err)
			}
			if ve.Code != tc.code {
				t.Fatalf("code = %q, want %q (%v)", ve.Code, tc.code, err)
			}
		})
	}
}

func TestValidationRejectsMixedInputLayouts(t *testing.T) {
	fb := newFake()
	fb.models["wide"] = &fakeModel{
		info: ModelInfo{Name: "wide", Version: 1, InputH: 8, InputW: 8, InputC: 3,
			OutputElems: 3, Softmax: true},
		answers: map[int][]float64{0: {1, 0, 0}},
	}
	r := NewRegistry(fb)
	_, err := r.Put(&Spec{Name: "g", Root: &NodeSpec{
		Kind: KindEnsemble, Children: []*NodeSpec{leaf("small"), leaf("wide")},
	}})
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.Code != "invalid_graph" {
		t.Fatalf("err = %v, want invalid_graph (input layout mismatch)", err)
	}
}

func TestVersionPinStaleAtInfer(t *testing.T) {
	fb := newFake()
	r := NewRegistry(fb)
	g := mustPut(t, r, &Spec{Name: "pin", Root: &NodeSpec{Kind: KindModel, Model: "small", Version: 1}})
	// The backend swaps small to version 2 after registration.
	fb.models["small"].info.Version = 2
	_, err := g.Infer(context.Background(), row(0), "")
	var sv *StaleVersionError
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want StaleVersionError", err)
	}
	if sv.Want != 1 || sv.Got != 2 {
		t.Fatalf("stale version want=%d got=%d, expected 1/2", sv.Want, sv.Got)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(newFake())
	mustPut(t, r, &Spec{Name: "a", Root: leaf("small")})
	mustPut(t, r, &Spec{Name: "b", Root: &NodeSpec{
		Kind: KindCascade, Threshold: 0.5,
		Children: []*NodeSpec{leaf("small"), leaf("large")},
	}})

	if got := r.Referenced("small"); fmt.Sprint(got) != "[a b]" {
		t.Fatalf("Referenced(small) = %v, want [a b]", got)
	}
	if got := r.Referenced("large"); fmt.Sprint(got) != "[b]" {
		t.Fatalf("Referenced(large) = %v, want [b]", got)
	}
	if got := r.Referenced("other"); len(got) != 0 {
		t.Fatalf("Referenced(other) = %v, want empty", got)
	}

	// Re-registration bumps the revision and resets counters.
	ga, err := r.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ga.Infer(context.Background(), row(0), ""); err != nil {
		t.Fatal(err)
	}
	g := mustPut(t, r, &Spec{Name: "a", Root: leaf("large")})
	if g.Revision() != 2 {
		t.Fatalf("revision %d after re-register, want 2", g.Revision())
	}
	if g.Stats().Requests != 0 {
		t.Fatalf("requests %d after re-register, want 0 (fresh counters)", g.Stats().Requests)
	}

	if err := r.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if got := r.Referenced("large"); fmt.Sprint(got) != "[a]" {
		t.Fatalf("Referenced(large) after delete = %v, want [a]", got)
	}
	if err := r.Delete("b"); err == nil {
		t.Fatal("second delete succeeded, want NotFoundError")
	}
	var nf *NotFoundError
	if _, err := r.Get("b"); !errors.As(err, &nf) {
		t.Fatalf("get of deleted graph: %v, want NotFoundError", err)
	}

	names := make([]string, 0)
	for _, g := range r.List() {
		names = append(names, g.Spec().Name)
	}
	if fmt.Sprint(names) != "[a]" {
		t.Fatalf("List = %v, want [a]", names)
	}
}

func TestNestedGraph(t *testing.T) {
	// A cascade whose final stage is an ensemble: composite nodes nest.
	r := NewRegistry(newFake())
	g := mustPut(t, r, &Spec{Name: "nested", Root: &NodeSpec{
		Kind: KindCascade, Threshold: 0.99,
		Children: []*NodeSpec{
			leaf("small"),
			{Kind: KindEnsemble, Children: []*NodeSpec{leaf("large"), leaf("other")}},
		},
	}})
	res, err := g.Infer(context.Background(), row(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Escalations != 1 {
		t.Fatalf("escalations %d, want 1 (0.4 < 0.99)", res.Escalations)
	}
	if !strings.Contains(res.ServedBy, "+") {
		t.Fatalf("served_by %q, want the ensemble", res.ServedBy)
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1000, 1000, 1000}) // stability: no NaN/Inf
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("softmax of equal logits = %v, want uniform", p)
		}
	}
	if Softmax(nil) != nil {
		t.Fatal("softmax(nil) should be nil")
	}
}
