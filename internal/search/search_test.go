package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"micronets/internal/core"
	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

func TestSpaceRandomAndMutateValid(t *testing.T) {
	for _, task := range []string{"kws", "ad"} {
		t.Run(task, func(t *testing.T) {
			space, err := core.SpaceForTask(task)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			spec := space.Random("t", rng)
			for trial := 0; trial < 200; trial++ {
				if _, err := spec.Analyze(); err != nil {
					t.Fatalf("trial %d: invalid spec %s: %v", trial, spec, err)
				}
				nDS := 0
				for _, b := range spec.Blocks {
					if b.OutC != 0 && b.OutC != space.NumClasses && b.OutC%4 != 0 {
						t.Fatalf("trial %d: width %d not a multiple of 4 (%s)", trial, b.OutC, spec)
					}
					if b.Kind == spec.Blocks[1].Kind && b.OutC > space.MaxC {
						t.Fatalf("trial %d: width %d above MaxC", trial, b.OutC)
					}
					if b.Kind.String() == "DSBlock" {
						nDS++
					}
				}
				if nDS < space.MinBlocks || nDS > space.MaxBlocks {
					t.Fatalf("trial %d: %d DS blocks outside [%d,%d]", trial, nDS, space.MinBlocks, space.MaxBlocks)
				}
				// Alternate random sampling and mutation chains.
				if trial%2 == 0 {
					spec = space.Mutate("t", spec, rng)
				} else {
					spec = space.Random("t", rng)
				}
			}
		})
	}
	if _, err := core.SpaceForTask("nope"); err == nil {
		t.Fatal("unknown task must error")
	}
}

func TestSpaceDeterministicPerSeed(t *testing.T) {
	space, _ := core.SpaceForTask("kws")
	a := space.Random("t", rand.New(rand.NewSource(7)))
	b := space.Random("t", rand.New(rand.NewSource(7)))
	if a.String() != b.String() {
		t.Fatalf("same seed, different candidates:\n%s\n%s", a, b)
	}
}

func TestFrontierDominance(t *testing.T) {
	f := &Frontier{}
	base := Metrics{AccuracyProxy: 90, LatencyS: 0.1, TotalSRAMBytes: 1000, TotalFlashBytes: 1000}
	if !f.Add(Point{Trial: 0, Metrics: base}) {
		t.Fatal("first point must join")
	}
	// Dominated on every axis: rejected.
	worse := base
	worse.AccuracyProxy, worse.LatencyS = 80, 0.2
	if f.Add(Point{Trial: 1, Metrics: worse}) {
		t.Fatal("dominated point must not join")
	}
	// Trades accuracy for latency: joins, evicts nothing.
	trade := Metrics{AccuracyProxy: 85, LatencyS: 0.05, TotalSRAMBytes: 1000, TotalFlashBytes: 1000}
	if !f.Add(Point{Trial: 2, Metrics: trade}) {
		t.Fatal("trade-off point must join")
	}
	if f.Size() != 2 {
		t.Fatalf("frontier size %d, want 2", f.Size())
	}
	// An exact metrics tie (a re-discovered duplicate architecture) must
	// not accumulate.
	if f.Add(Point{Trial: 5, Metrics: trade}) {
		t.Fatal("exact-duplicate metrics must not join the frontier")
	}
	// Dominates both: joins and evicts both.
	best := Metrics{AccuracyProxy: 95, LatencyS: 0.01, TotalSRAMBytes: 500, TotalFlashBytes: 500}
	if !f.Add(Point{Trial: 3, Metrics: best}) {
		t.Fatal("dominating point must join")
	}
	if f.Size() != 1 || f.Points()[0].Trial != 3 {
		t.Fatalf("dominated members not evicted: %+v", f.Points())
	}
}

// TestHarnessBudgetsEnforced is the acceptance gate: a 64-trial run on
// the small device must produce a non-empty frontier whose every member,
// re-lowered and re-planned from its logged spec, fits the device budgets
// by the planner's own byte accounting — arena and weight bytes included.
func TestHarnessBudgetsEnforced(t *testing.T) {
	dev := mcu.F446RE
	budgets := DeviceBudgets(dev)
	res, err := Run(context.Background(), Config{
		Task: "kws", Device: dev, Budgets: budgets,
		Trials: 64, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 64 {
		t.Fatalf("evaluated %d trials, want 64", len(res.Trials))
	}
	pts := res.Frontier.Points()
	if len(pts) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	for _, p := range pts {
		spec := p.Record.Spec
		m, err := graph.FromSpec(spec, rand.New(rand.NewSource(evalSeed)), graph.LowerOptions{})
		if err != nil {
			t.Fatalf("trial %d: re-lower: %v", p.Trial, err)
		}
		plan, err := tflm.PlanMemory(m)
		if err != nil {
			t.Fatalf("trial %d: re-plan: %v", p.Trial, err)
		}
		report, err := tflm.Report(m, plan)
		if err != nil {
			t.Fatal(err)
		}
		// Planner-reported arena and weight bytes must themselves be within
		// the device budgets, not just the aggregate totals.
		if plan.ArenaBytes > budgets.SRAMBytes {
			t.Errorf("trial %d: arena %d exceeds SRAM budget %d", p.Trial, plan.ArenaBytes, budgets.SRAMBytes)
		}
		if m.WeightBytes() > budgets.FlashBytes {
			t.Errorf("trial %d: weight bytes %d exceed flash budget %d", p.Trial, m.WeightBytes(), budgets.FlashBytes)
		}
		if report.TotalSRAM() > budgets.SRAMBytes {
			t.Errorf("trial %d: total SRAM %d exceeds budget %d", p.Trial, report.TotalSRAM(), budgets.SRAMBytes)
		}
		if report.TotalFlash() > budgets.FlashBytes {
			t.Errorf("trial %d: total flash %d exceeds budget %d", p.Trial, report.TotalFlash(), budgets.FlashBytes)
		}
		// The logged metrics must be the re-derived planner numbers, not a
		// drifted copy.
		if p.Metrics.ArenaBytes != plan.ArenaBytes || p.Metrics.WeightBytes != m.WeightBytes() {
			t.Errorf("trial %d: logged metrics (arena %d, weights %d) disagree with planner (%d, %d)",
				p.Trial, p.Metrics.ArenaBytes, p.Metrics.WeightBytes, plan.ArenaBytes, m.WeightBytes())
		}
	}
}

func TestHarnessResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "trials.jsonl")
	dev := mcu.F446RE
	first, err := Run(context.Background(), Config{
		Task: "kws", Device: dev, Trials: 12, Seed: 5, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Evaluated != 12 || first.Resumed != 0 {
		t.Fatalf("first run: evaluated %d resumed %d", first.Evaluated, first.Resumed)
	}
	second, err := Run(context.Background(), Config{
		Task: "kws", Device: dev, Trials: 24, Seed: 5, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 12 || second.Evaluated != 12 {
		t.Fatalf("resume run: evaluated %d resumed %d, want 12/12", second.Evaluated, second.Resumed)
	}
	seen := map[int]bool{}
	for _, rec := range second.Trials {
		if seen[rec.Trial] {
			t.Fatalf("trial %d evaluated twice", rec.Trial)
		}
		seen[rec.Trial] = true
	}
	for i := 0; i < 24; i++ {
		if !seen[i] {
			t.Fatalf("trial %d missing after resume", i)
		}
	}
	// The resumed run must regenerate identical random candidates for the
	// indices the first run covered (same per-trial seeds): the candidate
	// stream is a pure function of (Seed, trial), independent of frontier
	// fill timing — check via a third, checkpoint-free run.
	third, err := Run(context.Background(), Config{Task: "kws", Device: dev, Trials: 12, Seed: 5, MutateFrac: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range third.Trials {
		if rec.Source != "random" {
			continue
		}
		if first.Trials[i].Source == "random" && first.Trials[i].Spec.String() != rec.Spec.String() {
			t.Fatalf("trial %d random candidate not deterministic", i)
		}
	}
}

// TestResumeRevalidatesBudgets pins the resume contract: logged
// feasibility is never trusted — it is re-derived against the resuming
// run's budgets, and records measured on a different device or task are
// discarded (their metrics don't transfer).
func TestResumeRevalidatesBudgets(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "trials.jsonl")
	dev := mcu.F446RE
	first, err := Run(context.Background(), Config{
		Task: "kws", Device: dev, Trials: 16, Seed: 8, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Frontier.Size() == 0 {
		t.Fatal("need a non-empty frontier to make the test meaningful")
	}
	// Resume under a far tighter SRAM budget: every frontier member must
	// satisfy the NEW budget even though the log recorded it as feasible
	// under the old one.
	tight := Budgets{SRAMBytes: 24 * 1024, FlashBytes: dev.FlashBytes()}
	second, err := Run(context.Background(), Config{
		Task: "kws", Device: dev, Budgets: tight, Trials: 16, Seed: 8, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 16 || second.Evaluated != 0 {
		t.Fatalf("resumed %d evaluated %d, want 16/0", second.Resumed, second.Evaluated)
	}
	for _, p := range second.Frontier.Points() {
		if p.Metrics.TotalSRAMBytes > tight.SRAMBytes {
			t.Fatalf("trial %d on frontier with SRAM %d over the resumed budget %d",
				p.Trial, p.Metrics.TotalSRAMBytes, tight.SRAMBytes)
		}
	}
	// Resume against a different device: the logged metrics were measured
	// elsewhere, so nothing may be reused.
	other, err := Run(context.Background(), Config{
		Task: "kws", Device: mcu.F767ZI, Trials: 16, Seed: 8, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if other.Resumed != 0 || other.Evaluated != 16 {
		t.Fatalf("device-mismatched log reused: resumed %d evaluated %d", other.Resumed, other.Evaluated)
	}
}

func TestHarnessDNASWarmStart(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Task: "kws", Device: mcu.F746ZG, Trials: 4, Seed: 3, DNASSteps: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials[0].Source != "dnas" {
		t.Fatalf("trial 0 source %q, want dnas", res.Trials[0].Source)
	}
	if res.Trials[0].Err != "" {
		t.Fatalf("dnas candidate failed to evaluate: %s", res.Trials[0].Err)
	}
}

// TestADWarmStartStaysInSpace: the AD DNAS warm start is a member of the
// AD space, so mutating it keeps its pool+classifier tail.
func TestADWarmStartStaysInSpace(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Task: "ad", Device: mcu.F746ZG, Trials: 1, Seed: 5, DNASSteps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	warm := res.Trials[0]
	if warm.Source != "dnas" {
		t.Fatalf("trial 0 source %q, want dnas", warm.Source)
	}
	space, err := core.SpaceForTask("ad")
	if err != nil {
		t.Fatal(err)
	}
	back := space.Build(warm.Spec.Name, space.Widths(warm.Spec))
	back.Source = warm.Spec.Source
	if !reflect.DeepEqual(back, warm.Spec) {
		t.Fatalf("warm start %s is not in the AD space, which builds %s", warm.Spec, back)
	}
}

func TestHarnessMutationAppears(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Task: "ad", Device: mcu.F767ZI, Trials: 40, Seed: 9, Workers: 2, MutateFrac: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	mutated := 0
	for _, rec := range res.Trials {
		if rec.Source == "mutate" {
			mutated++
		}
	}
	if mutated == 0 {
		t.Fatal("no evolutionary trials in a 40-trial run with MutateFrac 0.9")
	}
}

// TestResumeAfterTornWriteRepairsLog simulates a crash mid-append: the
// torn fragment must be truncated away on reopen, so the resumed run's
// appends produce a log that parses cleanly forever after.
func TestResumeAfterTornWriteRepairsLog(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "trials.jsonl")
	dev := mcu.F446RE
	if _, err := Run(context.Background(), Config{
		Task: "kws", Device: dev, Trials: 6, Seed: 4, CheckpointPath: ckpt,
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trial":99,"sour`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	second, err := Run(context.Background(), Config{
		Task: "kws", Device: dev, Trials: 12, Seed: 4, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 6 || second.Evaluated != 6 {
		t.Fatalf("resumed %d evaluated %d, want 6/6", second.Resumed, second.Evaluated)
	}
	// The log must now be fully parseable — the torn fragment must not
	// have been welded onto the resumed run's first append.
	recs, err := LoadTrialLog(ckpt)
	if err != nil {
		t.Fatalf("log corrupt after torn-write resume: %v", err)
	}
	if len(recs) != 12 {
		t.Fatalf("log has %d records, want 12", len(recs))
	}
}

// TestResumeIgnoresOtherSeed pins that -seed means a fresh search: a log
// written under one seed must not be replayed for another.
func TestResumeIgnoresOtherSeed(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "trials.jsonl")
	dev := mcu.F446RE
	if _, err := Run(context.Background(), Config{
		Task: "kws", Device: dev, Trials: 6, Seed: 1, CheckpointPath: ckpt,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Task: "kws", Device: dev, Trials: 6, Seed: 2, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 0 || res.Evaluated != 6 {
		t.Fatalf("seed-mismatched log reused: resumed %d evaluated %d", res.Resumed, res.Evaluated)
	}
}

func TestReadTrialLogTornLine(t *testing.T) {
	good := `{"trial":0,"source":"random","feasible":false}` + "\n"
	torn := good + `{"trial":1,"sour`
	recs, err := ReadTrialLog(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn last line must be tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].Trial != 0 {
		t.Fatalf("got %+v, want the one intact record", recs)
	}
	// Mid-file corruption errors and names the physical line, blank
	// lines included.
	for _, tc := range []struct {
		log  string
		line int
	}{
		{`{"trial":0}` + "\n" + `garbage` + "\n" + `{"trial":2}` + "\n", 2},
		{`{"trial":0}` + "\n\n" + `garbage` + "\n" + `{"trial":2}` + "\n", 3},
	} {
		_, err := ReadTrialLog(strings.NewReader(tc.log))
		if want := fmt.Sprintf("line %d:", tc.line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("corrupt log %q: error %v, want one naming %s", tc.log, err, want)
		}
	}
}

// TestExportFrontierBuildsSpecFile: the export is a spec file of renamed
// copies with their notes, which reads back whole; nothing joins the
// zoo's catalogue.
func TestExportFrontierBuildsSpecFile(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Task: "kws", Device: mcu.F446RE, Trials: 8, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Frontier.Points()
	if len(pts) == 0 {
		t.Fatal("empty frontier")
	}
	file, names, err := ExportFrontier(pts, "NAS-test-kws-S", "search_test")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(pts) || len(file.Specs) != len(pts) {
		t.Fatalf("exported %d specs for %d points", len(file.Specs), len(pts))
	}
	for i, n := range names {
		if s := file.Specs[i]; s.Name != n || s.Source != "search" || pts[i].Record.Spec.Name == n {
			t.Fatalf("spec %d is %s (source %s), want a renamed copy %s", i, s.Name, s.Source, n)
		}
		if note := file.Notes[n]; !strings.Contains(note, "frontier") {
			t.Fatalf("exported model %s lacks a frontier note: %q", n, note)
		}
		if _, err := zoo.Get(n); err == nil {
			t.Fatalf("exporting %s added it to the zoo's catalogue", n)
		}
	}
	var buf bytes.Buffer
	if err := zoo.WriteSpecFile(&buf, file); err != nil {
		t.Fatal(err)
	}
	if back, err := zoo.ReadSpecFile(&buf); err != nil || len(back.Specs) != len(names) {
		t.Fatalf("exported file reads back with %v", err)
	}
}

func TestExportCascade(t *testing.T) {
	// A hand-made latency-sorted frontier: 5 points, 1..5 ms.
	var pts []Point
	for i := 0; i < 5; i++ {
		pts = append(pts, Point{Trial: i, Metrics: Metrics{LatencyS: float64(i+1) * 1e-3}})
	}
	spec, err := ExportCascade(pts, "NAS-kws-S", 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "NAS-kws-S-cascade" {
		t.Fatalf("cascade name %q", spec.Name)
	}
	root := spec.Root
	if root.Kind != "cascade" || root.Threshold != 0.8 {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 3 {
		t.Fatalf("stages = %d, want 3", len(root.Children))
	}
	// Fast → slow: endpoints included, trial indices map through ExportName.
	want := []string{"NAS-kws-S-000", "NAS-kws-S-002", "NAS-kws-S-004"}
	for i, c := range root.Children {
		if c.Model != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, c.Model, want[i])
		}
		if c.Kind != "model" {
			t.Fatalf("stage %d kind %q", i, c.Kind)
		}
	}

	// Degenerate inputs.
	if _, err := ExportCascade(nil, "p", 0.5, 3); err == nil {
		t.Fatal("empty frontier must error")
	}
	if _, err := ExportCascade(pts[:1], "p", 0.5, 3); err == nil {
		t.Fatal("single-point frontier must error (a cascade needs 2 stages)")
	}
	// stages below 2 is clamped up.
	spec, err = ExportCascade(pts, "p", 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Root.Children) != 2 {
		t.Fatalf("clamped stages = %d, want 2", len(spec.Root.Children))
	}
}

// TestResumeChecksSpaceDigest: a record logged against another search
// space is re-evaluated, like another device's, and a record without a
// space (the log format before spaces carried a digest) means the task's
// default space and resumes.
func TestResumeChecksSpaceDigest(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "trials.jsonl")
	cfg := Config{Task: "kws", Device: mcu.F446RE, Trials: 8, Seed: 11, CheckpointPath: ckpt}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	logged, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// rewrite writes the first run's log with every line's "space" field
	// set to space, or deleted when space is empty.
	rewrite := func(space string) {
		t.Helper()
		var out []byte
		for _, line := range bytes.Split(bytes.TrimSpace(logged), []byte("\n")) {
			var fields map[string]any
			if err := json.Unmarshal(line, &fields); err != nil {
				t.Fatal(err)
			}
			delete(fields, "space")
			if space != "" {
				fields["space"] = space
			}
			b, err := json.Marshal(fields)
			if err != nil {
				t.Fatal(err)
			}
			out = append(append(out, b...), '\n')
		}
		if err := os.WriteFile(ckpt, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fresh := cfg
	fresh.CheckpointPath = ""
	want, err := Run(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}

	rewrite("0123456789abcdef")
	foreign, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if foreign.Resumed != 0 || foreign.Evaluated != cfg.Trials {
		t.Fatalf("foreign-space log reused: resumed %d evaluated %d", foreign.Resumed, foreign.Evaluated)
	}
	if got, want := frontierKey(foreign.Frontier), frontierKey(want.Frontier); got != want {
		t.Fatalf("re-evaluated frontier\n%s\nwant the fresh run's\n%s", got, want)
	}

	rewrite("")
	parent, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if parent.Resumed != cfg.Trials || parent.Evaluated != 0 {
		t.Fatalf("log without space digests: resumed %d evaluated %d, want %d/0", parent.Resumed, parent.Evaluated, cfg.Trials)
	}
}

// frontierKey renders a frontier's points in order: trial, source,
// metrics and spec.
func frontierKey(f *Frontier) string {
	var b strings.Builder
	for _, p := range f.Points() {
		fmt.Fprintf(&b, "%d %s %+v %s\n", p.Trial, p.Source, p.Metrics, p.Record.Spec.Fingerprint())
	}
	return b.String()
}
