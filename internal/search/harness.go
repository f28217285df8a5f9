package search

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"micronets/internal/arch"
	"micronets/internal/core"
	"micronets/internal/datasets"
	"micronets/internal/mcu"
	"micronets/internal/nn"
	"micronets/internal/tflm"
)

// Config drives Run.
type Config struct {
	// Task selects the search space: "kws" or "ad".
	Task string
	// Device is the deployment target whose latency/energy models score
	// every trial.
	Device *mcu.Device
	// Budgets gate frontier membership; zero-valued budgets default to
	// DeviceBudgets(Device).
	Budgets Budgets
	// Trials is the total number of candidate evaluations (including any
	// resumed from the checkpoint).
	Trials int
	// Workers bounds the evaluation pool (default min(NumCPU, 8)).
	Workers int
	// Seed makes candidate generation deterministic per trial index.
	Seed int64
	// MutateFrac is the fraction of trials drawn by mutating a frontier
	// member once an earlier generation has produced one. Zero means the
	// default (0.5); pass a negative value to disable mutation entirely.
	MutateFrac float64
	// DNASSteps > 0 runs the differentiable search for that many steps to
	// warm-start trial 0 (instead of a random sample).
	DNASSteps int
	// Finalists > 0 enables the accuracy-in-the-loop second stage: after
	// the proxy-ranked sweep, that many frontier points — spread across
	// the latency range so the whole frontier is represented — are
	// re-ranked by real short training runs (Trainer.Train: the task's
	// recipe on its small synthetic dataset) and their TrainedAccuracy is
	// recorded alongside the proxy.
	Finalists int
	// TrainSteps is the per-finalist training budget (required when
	// Finalists > 0). A resumed run only reuses logged trained results
	// produced under the same budget.
	TrainSteps int
	// CheckpointPath is the JSONL trial log; if it exists, recorded
	// trials are resumed instead of re-evaluated. Empty disables
	// checkpointing (and resume).
	CheckpointPath string
	// Log receives progress lines (optional).
	Log func(string)
}

// Result is a finished (or budget-exhausted) search run.
type Result struct {
	Frontier *Frontier
	// Task and Device echo what the run searched for, so renderers don't
	// have to re-guess them.
	Task   string
	Device *mcu.Device
	// Trials holds every evaluated record, resumed and new, by trial.
	Trials []TrialRecord
	// Evaluated counts trials newly evaluated by this run; Resumed counts
	// records replayed from the checkpoint.
	Evaluated, Resumed int
	// Finalists is the stage-two re-rank: the finalist points that carry
	// a trained accuracy, best trained accuracy first. Empty when the run
	// was proxy-only (Config.Finalists == 0).
	Finalists []Point
	// Trained counts finalists newly trained by this run; finalists whose
	// trained result was resumed from the checkpoint are not re-trained
	// and not counted.
	Trained int
}

// generationSize is how many consecutive trials form one generation of
// the generation-synchronous search (see Run). Small, so mutation starts
// after a handful of random trials and draws from a fresh frontier; a
// multiple of the default worker counts (≤ 8), so no worker sits out a
// generation.
const generationSize = 8

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(fmt.Sprintf(format, args...))
	}
}

// Run executes the search. It is safe to cancel via ctx: completed trials
// are already checkpointed and the partial frontier is returned.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("search: Trials must be > 0")
	}
	if cfg.Device == nil {
		return nil, fmt.Errorf("search: Device is required")
	}
	if cfg.Finalists > 0 && cfg.TrainSteps <= 0 {
		return nil, fmt.Errorf("search: Finalists %d needs TrainSteps > 0", cfg.Finalists)
	}
	space, err := core.SpaceForTask(cfg.Task)
	if err != nil {
		return nil, err
	}
	digest := space.Digest()
	// Default unset memory budgets per field (a caller may set only a
	// latency budget and still expect the device's physical memory to
	// bound the rest); MaxLatencyS zero legitimately means unconstrained.
	devBudgets := DeviceBudgets(cfg.Device)
	if cfg.Budgets.SRAMBytes == 0 {
		cfg.Budgets.SRAMBytes = devBudgets.SRAMBytes
	}
	if cfg.Budgets.FlashBytes == 0 {
		cfg.Budgets.FlashBytes = devBudgets.FlashBytes
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
		if cfg.Workers > 8 {
			cfg.Workers = 8
		}
	}
	if cfg.MutateFrac == 0 {
		cfg.MutateFrac = 0.5
	}

	// recs[t] holds trial t's record once have[t], and final[t] its
	// stage-two record (resumed, or trained by this run). Each slot is
	// filled once — by the resume loop or by the worker that ran t — so
	// frontier Record pointers into recs stay valid for the whole run;
	// stage two only adds trained accuracies to recs.
	recs := make([]TrialRecord, cfg.Trials)
	have := make([]bool, cfg.Trials)
	final := make([]*TrialRecord, cfg.Trials)
	resumed := 0
	if cfg.CheckpointPath != "" {
		logged, err := LoadTrialLog(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		for i := range logged {
			rec := &logged[i]
			if rec.Trial < 0 || rec.Trial >= cfg.Trials {
				continue // stale log from a different -trials run; re-evaluate
			}
			if rec.Task != cfg.Task || rec.Device != cfg.Device.Name || rec.Seed != cfg.Seed ||
				rec.Space != "" && rec.Space != digest {
				// Logged for another task/device (metrics don't transfer) or
				// another seed or space (a fresh search, not a replay of the
				// old one).
				continue
			}
			if rec.Stage == StageFinalist {
				// Stage-two records never replace the proxy trial line; they
				// are only reused when this run trains with the same budget,
				// failures included (like a failed proxy trial, a finalist
				// whose training failed is not retried forever).
				if final[rec.Trial] == nil && cfg.Finalists > 0 && rec.TrainSteps == cfg.TrainSteps {
					final[rec.Trial] = rec
				}
				continue
			}
			if have[rec.Trial] {
				continue
			}
			// Budgets may be tighter (or looser) than the run that wrote
			// the log: feasibility is re-derived from the logged metrics,
			// never trusted, so a resumed frontier still honours THIS
			// run's command-line budgets.
			if rec.Err == "" {
				rec.Violations = cfg.Budgets.Check(rec.Metrics)
				rec.Feasible = len(rec.Violations) == 0
			}
			recs[rec.Trial], have[rec.Trial] = *rec, true
			resumed++
		}
		if resumed > 0 {
			cfg.logf("resumed %d/%d trials from %s", resumed, cfg.Trials, cfg.CheckpointPath)
		}
	}

	log, err := openTrialLog(cfg.CheckpointPath)
	if err != nil {
		return nil, err
	}
	defer log.close()

	// DNAS warm start for trial 0: run the differentiable search briefly
	// and let its discretized architecture seed the frontier (and, via
	// mutation, the evolutionary stream).
	var warm *arch.Spec
	if cfg.DNASSteps > 0 && !have[0] {
		if warm, err = dnasWarmStart(cfg, space); err != nil {
			cfg.logf("dnas warm start failed (%v); trial 0 falls back to random", err)
		} else {
			cfg.logf("dnas warm start: %s", warm)
		}
	}

	// The search is generation-synchronous: trials of one generation draw
	// mutation parents only from the frontier of all earlier generations,
	// frozen while the generation runs, and a finished generation's records
	// (resumed and new alike) join the frontier in trial order. Candidates
	// are therefore a pure function of (Seed, trial) — whatever the worker
	// count, scheduling, or where an earlier run was interrupted. Once ctx
	// is done no trial starts, but later generations' resumed records
	// still join, so the frontier covers every record in Result.Trials.
	frontier := &Frontier{}
	evaluate := func(trial int) {
		if ctx.Err() == nil {
			recs[trial] = cfg.runTrial(trial, space, frontier, warm)
			recs[trial].Space = digest
			log.append(&recs[trial])
			have[trial] = true
		}
	}
	pending := make([]int, 0, generationSize)
	for g0 := 0; g0 < cfg.Trials; g0 += generationSize {
		g1 := min(g0+generationSize, cfg.Trials)
		pending = pending[:0]
		for trial := g0; trial < g1; trial++ {
			if !have[trial] {
				pending = append(pending, trial)
			}
		}
		ran := len(pending) > 0 && ctx.Err() == nil
		if ran {
			forEach(pending, cfg.Workers, evaluate)
		}
		for trial := g0; trial < g1; trial++ {
			if rec := &recs[trial]; rec.Feasible && rec.Spec != nil {
				frontier.Add(rec.point())
			}
		}
		if ran {
			cfg.logf("trials %d-%d of %d evaluated, frontier %d", g0, g1-1, cfg.Trials, frontier.Size())
		}
	}
	if err := log.failed(); err != nil {
		return nil, err
	}

	// Stage two: accuracy-in-the-loop re-rank of the frontier finalists.
	// Selection uses the proxy-only frontier (identical whether or not a
	// previous run already trained some finalists), so an interrupted run
	// resumes onto the same finalist set. Trained accuracies land in recs,
	// and only then is the frontier rebuilt, under the finalist dominance
	// ordering; a proxy-only run keeps the frontier it grew.
	res := &Result{Frontier: frontier, Task: cfg.Task, Device: cfg.Device, Resumed: resumed}
	if cfg.Finalists > 0 && frontier.Size() > 0 && ctx.Err() == nil {
		if err := cfg.runFinalists(ctx, res, recs, final, log); err != nil {
			return nil, err
		}
		if len(res.Finalists) > 0 {
			res.Frontier = &Frontier{}
			for i := range recs {
				if rec := &recs[i]; rec.Feasible && rec.Spec != nil {
					res.Frontier.Add(rec.point())
				}
			}
			res.Frontier.PruneTrainedDominated()
		}
	}

	// Result.Trials is recs itself, which frontier Records point into,
	// unless a cancelled run left holes: then it is a compacted copy.
	res.Trials = recs
	if slices.Contains(have, false) {
		res.Trials = make([]TrialRecord, 0, cfg.Trials)
		for trial := range recs {
			if have[trial] {
				res.Trials = append(res.Trials, recs[trial])
			}
		}
	}
	res.Evaluated = len(res.Trials) - resumed
	cfg.logf("search done: %d trials (%d resumed), frontier %d, %d finalists trained",
		len(res.Trials), resumed, res.Frontier.Size(), len(res.Finalists))
	return res, ctx.Err()
}

// forEach calls fn once for each of trials on at most workers goroutines
// and returns when every call has. Workers claim trials in order from a
// shared cursor, so no trial gets a goroutine of its own.
func forEach(trials []int, workers int, fn func(trial int)) {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := min(workers, len(trials)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(trials)); i = next.Add(1) - 1 {
				fn(trials[i])
			}
		}()
	}
	wg.Wait()
}

// point is the frontier candidate for a feasible record.
func (r *TrialRecord) point() Point {
	return Point{Trial: r.Trial, Source: r.Source, Metrics: r.Metrics, Record: r}
}

// finalistSeed derives the stage-two training seed for a trial: a pure
// function of (Seed, trial) — so re-ranks reproduce exactly — but offset
// from runTrial's candidate-generation stream so training randomness never
// correlates with the candidate the trial generated.
func finalistSeed(seed int64, trial int) int64 {
	return seed*1_000_003 + int64(trial) + 977_953_111
}

// runFinalists trains the finalists res.Frontier selects that final does
// not already hold (per-trial seeds), appends one StageFinalist JSONL
// record per newly trained finalist, and writes the trained accuracies
// into recs and res.Finalists. A finalist counts as trained when its
// stage-two record has an empty Err, whatever its score: an honest 0 %
// is neither dropped nor retrained.
func (c *Config) runFinalists(ctx context.Context, res *Result, recs []TrialRecord, final []*TrialRecord, log *trialLog) error {
	finalists := SpreadPoints(res.Frontier.Points(), c.Finalists)
	trainer, err := NewTrainer(c.Task, c.Seed)
	if err != nil {
		return err
	}
	var todo []int
	resumedOK := 0
	for _, p := range finalists {
		if f := final[p.Trial]; f == nil {
			todo = append(todo, p.Trial)
		} else if f.Err == "" {
			resumedOK++
		}
	}
	c.logf("stage two: training %d finalists for %d steps each (%d workers)",
		len(finalists), c.TrainSteps, min(c.Workers, len(finalists)))
	forEach(todo, c.Workers, func(trial int) {
		if ctx.Err() != nil {
			return
		}
		frec := recs[trial]
		frec.Stage, frec.TrainSteps = StageFinalist, c.TrainSteps
		acc, _, err := trainer.Train(frec.Spec, c.TrainSteps, finalistSeed(c.Seed, trial), false)
		if err != nil {
			frec.Err = err.Error()
			c.logf("finalist trial-%03d failed to train: %v", trial, err)
		} else {
			frec.Metrics.TrainedAccuracy = acc
			c.logf("finalist trial-%03d: trained %.1f%% (proxy %.1f%%)", trial, acc, frec.Metrics.AccuracyProxy)
		}
		log.append(&frec)
		final[trial] = &frec
	})
	if err := log.failed(); err != nil {
		return err
	}
	for _, p := range finalists {
		if f := final[p.Trial]; f != nil && f.Err == "" {
			rec := &recs[p.Trial]
			rec.Metrics.TrainedAccuracy = f.Metrics.TrainedAccuracy
			res.Finalists = append(res.Finalists, rec.point())
		}
	}
	res.Trained = len(res.Finalists) - resumedOK
	sortFinalists(res.Finalists)
	return nil
}

// sortFinalists orders the stage-two result best-first: trained accuracy
// down, then latency up, then trial index for stability.
func sortFinalists(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i].Metrics, pts[j].Metrics
		if a.TrainedAccuracy != b.TrainedAccuracy {
			return a.TrainedAccuracy > b.TrainedAccuracy
		}
		if a.LatencyS != b.LatencyS {
			return a.LatencyS < b.LatencyS
		}
		return pts[i].Trial < pts[j].Trial
	})
}

// runTrial generates and evaluates one candidate. Generation is seeded by
// (Seed, trial) so a resumed run regenerates the same candidates for the
// same indices. The generator decisions are drawn from the rng in a fixed
// order BEFORE the frontier is consulted, and frontier is the frozen
// snapshot of the earlier generations (see Run), so the whole candidate
// stream is a pure function of (Seed, trial). warm, when set, is the DNAS
// warm-start candidate of trial 0.
func (c *Config) runTrial(trial int, space *core.Space, frontier *Frontier, warm *arch.Spec) TrialRecord {
	rng := rand.New(rand.NewSource(c.Seed*1_000_003 + int64(trial)))
	mutateRoll := rng.Float64()
	parentPick := rng.Int63()
	name := fmt.Sprintf("trial-%03d", trial)
	rec := TrialRecord{Trial: trial, Source: "random", Task: c.Task, Device: c.Device.Name, Seed: c.Seed}
	parent, hasParent := frontier.Pick(parentPick)
	if warm != nil && trial == 0 {
		rec.Source = "dnas"
		rec.Spec = warm
	} else if hasParent && c.MutateFrac > 0 && mutateRoll < c.MutateFrac {
		rec.Source = "mutate"
		rec.Spec = space.Mutate(name, parent.Record.Spec, rng)
	} else {
		rec.Spec = space.Random(name, rng)
	}
	met, err := Evaluate(rec.Spec, c.Device)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Metrics = met
	rec.Violations = c.Budgets.Check(met)
	rec.Feasible = len(rec.Violations) == 0
	return rec
}

// dnasWarmStart runs the differentiable search (internal/core) on the
// task's synthetic dataset under byte-denominated constraints derived
// from the budgets, returning the discretized architecture.
func dnasWarmStart(cfg Config, space *core.Space) (*arch.Spec, error) {
	_, res, err := runDNAS(cfg, space)
	if err != nil {
		return nil, err
	}
	spec := res.Spec
	spec.Name = "trial-000"
	return spec, nil
}

// runDNAS is dnasWarmStart's search, returning the trained supernet
// beside its result.
func runDNAS(cfg Config, space *core.Space) (*core.Supernet, *core.SearchResult, error) {
	var ds *datasets.Dataset
	switch cfg.Task {
	case "kws":
		ds = datasets.SynthKWS(datasets.KWSOptions{PerClass: 8, Seed: cfg.Seed})
	case "ad":
		ad := datasets.SynthAD(datasets.ADOptions{ClipsPerMachine: 8, Seed: cfg.Seed})
		ds = ad.ClassifierDataset()
	default:
		return nil, nil, fmt.Errorf("search: no DNAS dataset for task %q", cfg.Task)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	trainDS, valDS := ds.Split(rng, 0.3)
	// Byte-denominated constraints from the deployment budgets, minus the
	// runtime overheads the paper subtracts (§5.1); the headroom factors
	// leave room for persistent buffers and quant metadata, which the
	// relaxed model cannot see but the planner will charge. If a budget
	// sits below the fixed runtime overhead, no model can ever fit — fail
	// loudly instead of letting the zero-budget guard in
	// core.Constraints.Penalty run the warm start unconstrained.
	cons := core.Constraints{
		MaxWeightBytes: float64(cfg.Budgets.FlashBytes-tflm.RuntimeCodeFlashBytes-tflm.OtherFlashBytes) * 0.8,
		MaxArenaBytes:  float64(cfg.Budgets.SRAMBytes-tflm.InterpreterSRAMBytes-tflm.OtherSRAMBytes) * 0.8,
		MaxOps:         40e6,
	}
	if cons.MaxWeightBytes <= 0 || cons.MaxArenaBytes <= 0 {
		return nil, nil, fmt.Errorf("budgets (%d KB SRAM, %d KB flash) are below the TFLM runtime overheads",
			cfg.Budgets.SRAMBytes/1024, cfg.Budgets.FlashBytes/1024)
	}
	// The paper's KWS supernet has nine blocks of up to 276 channels
	// (§5.2.2); four of up to 64 keep the warm start laptop-scale.
	sn, err := core.NewSupernet(rng, space.Supernet(64, 4))
	if err != nil {
		return nil, nil, err
	}
	trainRng := rand.New(rand.NewSource(cfg.Seed + 1))
	valRng := rand.New(rand.NewSource(cfg.Seed + 2))
	res, err := core.RunSearch(sn,
		func(int) core.Batch {
			x, labels := trainDS.RandomBatch(trainRng, 8)
			return core.Batch{X: x, Labels: labels}
		},
		func(int) core.Batch {
			x, labels := valDS.RandomBatch(valRng, 8)
			return core.Batch{X: x, Labels: labels}
		},
		cons,
		core.SearchConfig{
			Steps: cfg.DNASSteps, ArchStartStep: cfg.DNASSteps / 5,
			WeightLR: nn.CosineSchedule{Start: 0.05, End: 0.002, Steps: cfg.DNASSteps},
			Seed:     cfg.Seed,
		})
	if err != nil {
		return nil, nil, err
	}
	return sn, res, nil
}
