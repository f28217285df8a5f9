package search

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micronets/internal/arch"
	"micronets/internal/core"
	"micronets/internal/mcu"
)

// brokenDevice returns a device the latency model cannot score (no clock
// calibration) but whose memory budgets are normal — the shape of a
// miscalibrated board entry.
func brokenDevice() *mcu.Device {
	return &mcu.Device{
		Name: "broken-board", CPU: "Cortex-M?", ClockMHz: 0, CycleFactor: 1,
		SRAMKB: 320, FlashKB: 1024, ActiveMW: 100, SleepMW: 1,
		SupplyVoltage: 3.3, Class: "M",
	}
}

// TestLatencyModelErrorFailsTrial is the regression test for the
// `lat, _ := mcu.ModelLatency(...)` bug: a candidate whose latency model
// fails must fail the whole trial and be recorded as a failed trial in
// the JSONL log — never score 0 s and Pareto-dominate real candidates.
func TestLatencyModelErrorFailsTrial(t *testing.T) {
	dev := brokenDevice()
	space, err := core.SpaceForTask("kws")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(space.Build("t", []int{16, 16, 16}), dev); err == nil {
		t.Fatal("Evaluate on an unscoreable device must error")
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "trials.jsonl")
	res, err := Run(context.Background(), Config{
		Task: "kws", Device: dev, Trials: 4, Seed: 11, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frontier.Size() != 0 {
		t.Fatalf("frontier has %d members from a device no trial can be measured on", res.Frontier.Size())
	}
	for _, rec := range res.Trials {
		if rec.Err == "" {
			t.Fatalf("trial %d succeeded against the broken latency model", rec.Trial)
		}
		if rec.Feasible {
			t.Fatalf("trial %d marked feasible despite failing", rec.Trial)
		}
		if rec.Metrics.LatencyS != 0 || rec.Metrics.AccuracyProxy != 0 {
			t.Fatalf("trial %d carries metrics (%+v) despite failing", rec.Trial, rec.Metrics)
		}
	}
	// The failures must be durable: the log records them as failed trials.
	recs, err := LoadTrialLog(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("log has %d records, want 4", len(recs))
	}
	for _, rec := range recs {
		if rec.Err == "" {
			t.Fatalf("logged trial %d lacks the failure", rec.Trial)
		}
	}
}

// TestBrokenSpecFailsEvaluate is the regression test for accuracyProxy
// swallowing spec.Analyze errors: a malformed spec must surface an error
// from Evaluate (and a 0 score must never be logged as legitimate).
func TestBrokenSpecFailsEvaluate(t *testing.T) {
	broken := &arch.Spec{
		Name: "broken", Task: "kws", InputH: 0, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: []arch.Block{{Kind: arch.Dense, OutC: 12}},
	}
	if _, err := accuracyProxy(broken); err == nil {
		t.Fatal("accuracyProxy must propagate Analyze errors, not return 0")
	}
	if _, err := Evaluate(broken, mcu.F446RE); err == nil {
		t.Fatal("Evaluate must fail on a spec that does not analyze")
	}
	// A structurally-impossible block sequence (conv after flatten) fails
	// Analyze too, and must also surface.
	after := &arch.Spec{
		Name: "conv-after-flatten", Task: "kws", InputH: 8, InputW: 8, InputC: 1, NumClasses: 4,
		Blocks: []arch.Block{
			{Kind: arch.Dense, OutC: 4},
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 1},
		},
	}
	if _, err := Evaluate(after, mcu.F446RE); err == nil {
		t.Fatal("Evaluate must fail on conv-after-flatten")
	}
}

// twoStageConfig is the shared small-budget config the two-stage tests
// run: big enough for a meaningful frontier, small enough to stay fast.
func twoStageConfig(ckpt string) Config {
	return Config{
		Task: "kws", Device: mcu.F446RE, Trials: 12, Seed: 33,
		Finalists: 2, TrainSteps: 5, CheckpointPath: ckpt,
	}
}

func TestTwoStageFinalistsTrained(t *testing.T) {
	res, err := Run(context.Background(), twoStageConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finalists) == 0 {
		t.Fatal("two-stage run produced no trained finalists")
	}
	if res.Trained != len(res.Finalists) {
		t.Fatalf("Trained %d != finalists %d on a fresh run", res.Trained, len(res.Finalists))
	}
	for _, p := range res.Finalists {
		if p.Metrics.TrainedAccuracy <= 0 {
			t.Fatalf("finalist trial %d has no trained accuracy", p.Trial)
		}
		if p.Metrics.TrainedAccuracy == p.Metrics.AccuracyProxy {
			t.Fatalf("finalist trial %d trained accuracy equals the proxy (%.4f) — suspicious copy",
				p.Trial, p.Metrics.AccuracyProxy)
		}
	}
	// The re-rank is ordered best-first by trained accuracy.
	for i := 1; i < len(res.Finalists); i++ {
		if res.Finalists[i].Metrics.TrainedAccuracy > res.Finalists[i-1].Metrics.TrainedAccuracy {
			t.Fatal("finalists not sorted by trained accuracy")
		}
	}
	// Trained accuracy propagates into the trial records and the exported
	// spec notes.
	trained := map[int]float64{}
	for _, rec := range res.Trials {
		if rec.Metrics.TrainedAccuracy > 0 {
			trained[rec.Trial] = rec.Metrics.TrainedAccuracy
		}
	}
	if len(trained) != len(res.Finalists) {
		t.Fatalf("%d trial records carry trained accuracy, want %d", len(trained), len(res.Finalists))
	}
	file, _, err := ExportFrontier(res.Finalists, "NAS-twostage-test", "twostage_test")
	if err != nil {
		t.Fatal(err)
	}
	for name, note := range file.Notes {
		if !strings.Contains(note, "trained") {
			t.Fatalf("exported finalist %s note lacks trained accuracy: %q", name, note)
		}
	}
}

// TestTwoStageDeterministicUnderSeed pins the search as a pure function
// of (seed, trials): a serial and a 4-worker run must agree on every
// trial record — mutated candidates included, which is what a live
// frontier raced on — and therefore on the trained finalists.
func TestTwoStageDeterministicUnderSeed(t *testing.T) {
	run := func(workers int) *Result {
		cfg := twoStageConfig("")
		cfg.Workers = workers
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(a.Trials), len(b.Trials))
	}
	mutated := 0
	for i := range a.Trials {
		ra, rb := a.Trials[i], b.Trials[i]
		if ra.Trial != rb.Trial || ra.Source != rb.Source || ra.Metrics != rb.Metrics ||
			ra.Spec.String() != rb.Spec.String() {
			t.Fatalf("trial %d depends on the worker count:\n 1 worker:  %s %s %+v\n 4 workers: %s %s %+v",
				ra.Trial, ra.Source, ra.Spec, ra.Metrics, rb.Source, rb.Spec, rb.Metrics)
		}
		if ra.Source == "mutate" {
			mutated++
		}
	}
	if mutated == 0 {
		t.Fatal("config mutates no trial, so it cannot catch a scheduling-dependent parent pick")
	}
	if len(a.Finalists) == 0 {
		t.Fatal("no finalists trained")
	}
	assertSameFinalists(t, a, b)
}

func TestTwoStageResumeSkipsTrainedFinalists(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "trials.jsonl")
	first, err := Run(context.Background(), twoStageConfig(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if first.Trained == 0 {
		t.Fatal("first run trained no finalists")
	}
	// A clean resume replays everything: no re-evaluation, no re-training.
	second, err := Run(context.Background(), twoStageConfig(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if second.Evaluated != 0 || second.Trained != 0 {
		t.Fatalf("clean resume re-did work: evaluated %d trained %d", second.Evaluated, second.Trained)
	}
	assertSameFinalists(t, first, second)

	// Simulate a crash mid-finalist-training: drop one finalist line from
	// the log. The resumed run must retrain exactly that finalist and
	// reproduce the interrupted run's results (per-trial seeds).
	dropTrial := first.Finalists[0].Trial
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	dropped := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.Contains(line, `"stage":"finalist"`) && strings.Contains(line, fmt.Sprintf(`"trial":%d,`, dropTrial)) {
			dropped++
			continue
		}
		kept = append(kept, line)
	}
	if dropped != 1 {
		t.Fatalf("dropped %d finalist lines for trial %d, want 1", dropped, dropTrial)
	}
	if err := os.WriteFile(ckpt, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	third, err := Run(context.Background(), twoStageConfig(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if third.Evaluated != 0 || third.Trained != 1 {
		t.Fatalf("mid-training resume: evaluated %d trained %d, want 0/1", third.Evaluated, third.Trained)
	}
	assertSameFinalists(t, first, third)
}

// TestProxyOnlyLogResumesIntoTwoStage pins forward compatibility: a
// JSONL log written by a proxy-only run (the schema before two-stage
// search) must resume into a two-stage run without error — trials are
// replayed, finalists are trained fresh.
func TestProxyOnlyLogResumesIntoTwoStage(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "trials.jsonl")
	proxyCfg := twoStageConfig(ckpt)
	proxyCfg.Finalists, proxyCfg.TrainSteps = 0, 0
	first, err := Run(context.Background(), proxyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Finalists) != 0 || first.Trained != 0 {
		t.Fatal("proxy-only run must not train finalists")
	}
	for _, rec := range first.Trials {
		if rec.Metrics.TrainedAccuracy != 0 {
			t.Fatalf("proxy-only trial %d carries trained accuracy", rec.Trial)
		}
	}
	second, err := Run(context.Background(), twoStageConfig(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != len(first.Trials) || second.Evaluated != 0 {
		t.Fatalf("proxy-only log not replayed: resumed %d evaluated %d", second.Resumed, second.Evaluated)
	}
	if second.Trained == 0 || len(second.Finalists) == 0 {
		t.Fatal("two-stage resume from a proxy-only log trained no finalists")
	}
	// And the other direction: a proxy-only run over a two-stage log must
	// ignore the finalist lines without error.
	third, err := Run(context.Background(), proxyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if third.Resumed != len(first.Trials) || third.Evaluated != 0 || third.Trained != 0 {
		t.Fatalf("two-stage log broke a proxy-only resume: resumed %d evaluated %d trained %d",
			third.Resumed, third.Evaluated, third.Trained)
	}
}

func TestFinalistDominanceUsesTrainedAccuracy(t *testing.T) {
	// a and b are proxy-incomparable (b buys its higher proxy with
	// latency) so both join the frontier — but training revealed a to be
	// strictly better: higher measured accuracy at lower cost.
	a := Metrics{AccuracyProxy: 90, TrainedAccuracy: 70, LatencyS: 0.1, TotalSRAMBytes: 100, TotalFlashBytes: 100}
	b := Metrics{AccuracyProxy: 95, TrainedAccuracy: 50, LatencyS: 0.2, TotalSRAMBytes: 100, TotalFlashBytes: 100}
	if !dominates(a, b, true) {
		t.Fatal("higher trained accuracy at lower cost must dominate")
	}
	if dominates(b, a, true) {
		t.Fatal("higher proxy must not dominate when both carry trained accuracy")
	}
	// Frontier.Add stays proxy-only (transitive, insertion-order free):
	// a trained finalist is never evicted mid-run just for scoring
	// honestly low against an untrained point's optimistic proxy.
	c := Metrics{AccuracyProxy: 90, TrainedAccuracy: 20, LatencyS: 0.1, TotalSRAMBytes: 100, TotalFlashBytes: 100}
	d := Metrics{AccuracyProxy: 85, LatencyS: 0.1, TotalSRAMBytes: 100, TotalFlashBytes: 100}
	if !dominates(c, d, false) || dominates(d, c, false) {
		t.Fatal("proxy axis must decide Frontier.Add comparisons")
	}

	// The prune applies the trained ordering among trained members only,
	// and leaves untrained members alone.
	f := &Frontier{}
	f.Add(Point{Trial: 0, Metrics: a})
	f.Add(Point{Trial: 1, Metrics: b})
	unrelated := Metrics{AccuracyProxy: 96, LatencyS: 0.3, TotalSRAMBytes: 100, TotalFlashBytes: 100}
	f.Add(Point{Trial: 2, Metrics: unrelated})
	if f.Size() != 3 {
		t.Fatalf("setup frontier size %d, want 3", f.Size())
	}
	f.PruneTrainedDominated()
	if f.Size() != 2 {
		t.Fatalf("pruned frontier size %d, want 2 (b evicted under trained ordering)", f.Size())
	}
	for _, p := range f.Points() {
		if p.Trial == 1 {
			t.Fatal("trained-dominated finalist survived the prune")
		}
	}
}

func TestSpreadPoints(t *testing.T) {
	pts := make([]Point, 7)
	for i := range pts {
		pts[i] = Point{Trial: i, Metrics: Metrics{LatencyS: float64(i)}}
	}
	got := SpreadPoints(pts, 3)
	if len(got) != 3 || got[0].Trial != 0 || got[2].Trial != 6 {
		t.Fatalf("spread must keep both endpoints: %+v", got)
	}
	if len(SpreadPoints(pts, 0)) != 7 || len(SpreadPoints(pts, 10)) != 7 {
		t.Fatal("k<=0 or k>=len must return every point")
	}
	if one := SpreadPoints(pts, 1); len(one) != 1 || one[0].Trial != 0 {
		t.Fatalf("k=1 must return the fastest point: %+v", one)
	}
	seen := map[int]bool{}
	for _, p := range SpreadPoints(pts, 6) {
		if seen[p.Trial] {
			t.Fatalf("duplicate trial %d in spread", p.Trial)
		}
		seen[p.Trial] = true
	}
}

// TestTrainerADPath exercises the anomaly-detection finalist metric: the
// §4.3 AUC protocol over the AD recipe's test set.
func TestTrainerADPath(t *testing.T) {
	tr, err := NewTrainer("ad", 7)
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.SpaceForTask("ad")
	if err != nil {
		t.Fatal(err)
	}
	spec := space.Build("ad-finalist", []int{16, 16, 16, 16})
	auc, _, err := tr.Train(spec, 4, 99, false)
	if err != nil {
		t.Fatal(err)
	}
	if auc <= 0 || auc > 100 {
		t.Fatalf("AD trained metric %v outside (0, 100]", auc)
	}
	if _, err := NewTrainer("nope", 1); err == nil {
		t.Fatal("unknown task must error")
	}
}

// TestTrainerExport runs the one-candidate path cmd/train drives —
// Train with QAT, then Export — on a KWS and an AD spec: the int8 model
// must come back with a score in the metric's range, and a second
// Export of the same model must reproduce it (the calibration batch is
// drawn from the run seed, not from shared state).
func TestTrainerExport(t *testing.T) {
	for _, tc := range []struct {
		task   string
		widths []int
	}{{"kws", []int{8, 12, 12}}, {"ad", []int{8, 8, 8, 8}}} {
		t.Run(tc.task, func(t *testing.T) {
			tr, err := NewTrainer(tc.task, 3)
			if err != nil {
				t.Fatal(err)
			}
			space, err := core.SpaceForTask(tc.task)
			if err != nil {
				t.Fatal(err)
			}
			spec := space.Build("export-"+tc.task, tc.widths)
			_, model, err := tr.Train(spec, 3, 5, true)
			if err != nil {
				t.Fatal(err)
			}
			gm, score, err := tr.Export(spec, model)
			if err != nil {
				t.Fatal(err)
			}
			if gm == nil || score < 0 || score > 100 {
				t.Fatalf("int8 export: model %v, score %v outside [0, 100]", gm, score)
			}
			if _, again, err := tr.Export(spec, model); err != nil || again != score {
				t.Fatalf("second export scored %v (err %v), first %v", again, err, score)
			}
		})
	}
}

func assertSameFinalists(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Finalists) != len(got.Finalists) {
		t.Fatalf("finalist counts differ: %d vs %d", len(want.Finalists), len(got.Finalists))
	}
	for i := range want.Finalists {
		pw, pg := want.Finalists[i], got.Finalists[i]
		if pw.Trial != pg.Trial || pw.Metrics.TrainedAccuracy != pg.Metrics.TrainedAccuracy {
			t.Fatalf("finalist %d differs: trial %d (%.4f) vs trial %d (%.4f)",
				i, pw.Trial, pw.Metrics.TrainedAccuracy, pg.Trial, pg.Metrics.TrainedAccuracy)
		}
	}
}
