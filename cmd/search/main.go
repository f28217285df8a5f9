// Command search runs the parallel two-stage hardware-in-the-loop NAS
// harness (internal/search). Stage one sweeps: candidate architectures —
// random samples, evolutionary mutations of the live Pareto frontier, and
// an optional DNAS-warm-started seed (§5) — are lowered through the real
// deployment path (graph → tflm memory planner → mcu latency/energy
// models) and competed on (accuracy-proxy, latency, SRAM, flash). Stage
// two re-ranks: -finalists K frontier points are trained for real
// (-train-steps each) on the task's quick synthetic dataset, and their
// measured accuracy replaces the proxy in the finalist ordering. Every
// trial — and every finalist training — is checkpointed to a JSONL log
// for resume; frontier winners are exported as a spec file cmd/serve can
// load with -specs, or published straight into a RUNNING server's
// /v2/repository control plane with -publish (zero restarts).
//
// Usage:
//
//	search -task kws -device S -trials 64 -finalists 3 -train-steps 60
//	search -task ad -device L -trials 256 -log trials.jsonl -export frontier.json
//	search -task kws -device S -trials 64 -log trials.jsonl   # re-run resumes
//	search -trials 128 -publish http://localhost:8151         # hot-deploy the frontier
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"micronets/internal/mcu"
	"micronets/internal/search"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("search: ")
	task := flag.String("task", "kws", "task: kws or ad")
	device := flag.String("device", "S", "target MCU class: S, M or L")
	trials := flag.Int("trials", 64, "total candidate evaluations (including resumed)")
	workers := flag.Int("workers", 0, "parallel evaluation workers (0 = min(NumCPU, 8))")
	seed := flag.Int64("seed", 42, "search seed (per-trial candidate generation is derived from it)")
	sramKB := flag.Int("sram-kb", 0, "SRAM budget in KB (0 = device SRAM)")
	flashKB := flag.Int("flash-kb", 0, "flash budget in KB (0 = device flash)")
	maxLatMS := flag.Float64("max-latency-ms", 0, "latency budget in ms (0 = unconstrained)")
	dnasSteps := flag.Int("dnas-steps", 40, "DNAS warm-start steps for trial 0 (0 disables)")
	finalists := flag.Int("finalists", 3, "frontier finalists re-ranked by real training runs (0 disables stage two)")
	trainSteps := flag.Int("train-steps", 60, "training steps per finalist (stage two)")
	logPath := flag.String("log", "search_trials.jsonl", "JSONL trial log (checkpoint/resume); empty disables")
	exportPath := flag.String("export", "search_frontier.json", "spec file for the exported frontier; empty disables")
	exportTop := flag.Int("export-top", 0, "export at most N frontier models, spread across the latency range (0 = all)")
	publish := flag.String("publish", "", "base URL of a running serve instance (e.g. http://localhost:8151) to hot-load the exported frontier into, no restart")
	exportCascade := flag.String("export-cascade", "", "also write a cascade graph spec (PUT /v2/graphs body) built from the exported frontier")
	cascadeStages := flag.Int("cascade-stages", 3, "stages in the exported cascade, spread fast to slow across the frontier")
	cascadeThreshold := flag.Float64("cascade-threshold", 0.7, "early-exit confidence of the exported cascade's non-final stages")
	mutateFrac := flag.Float64("mutate-frac", 0.5, "fraction of trials mutating a frontier member (0 disables mutation)")
	flag.Parse()

	dev, err := mcu.ByClass(*device)
	if err != nil {
		log.Fatal(err)
	}
	budgets := search.DeviceBudgets(dev)
	if *sramKB > 0 {
		budgets.SRAMBytes = *sramKB * 1024
	}
	if *flashKB > 0 {
		budgets.FlashBytes = *flashKB * 1024
	}
	if *maxLatMS > 0 {
		budgets.MaxLatencyS = *maxLatMS / 1e3
	}

	// The harness treats MutateFrac 0 as "use the default"; the flag's 0
	// means "no mutation", which the harness spells as negative.
	if *mutateFrac == 0 {
		*mutateFrac = -1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("searching %s architectures for %s (budgets: %d KB SRAM, %d KB flash)\n",
		*task, dev, budgets.SRAMBytes/1024, budgets.FlashBytes/1024)
	res, err := search.Run(ctx, search.Config{
		Task:           *task,
		Device:         dev,
		Budgets:        budgets,
		Trials:         *trials,
		Workers:        *workers,
		Seed:           *seed,
		MutateFrac:     *mutateFrac,
		DNASSteps:      *dnasSteps,
		Finalists:      *finalists,
		TrainSteps:     *trainSteps,
		CheckpointPath: *logPath,
		Log:            func(s string) { fmt.Println("  " + s) },
	})
	if res == nil && err != nil {
		log.Fatal(err)
	}
	if err != nil {
		log.Printf("interrupted (%v); reporting the partial frontier", err)
	}

	pts := res.Frontier.Points()
	feasible := 0
	for _, r := range res.Trials {
		if r.Feasible {
			feasible++
		}
	}
	fmt.Printf("\n%d trials (%d resumed), %d feasible, Pareto frontier %d:\n\n",
		len(res.Trials), res.Resumed, feasible, len(pts))
	printTable(pts)
	if len(res.Finalists) > 0 {
		fmt.Printf("\nfinalist re-rank (%d trained for %d steps each, best first):\n\n",
			len(res.Finalists), *trainSteps)
		printTable(res.Finalists)
	}
	if len(pts) == 0 {
		if err != nil {
			log.Fatal("interrupted before any feasible candidate was found; re-run with the same -log to continue")
		}
		log.Fatal("no feasible candidates; loosen the budgets or raise -trials")
	}

	if *exportPath != "" || *publish != "" || *exportCascade != "" {
		// Points are latency-sorted; an even spread covers the whole
		// frontier, not just its fast end.
		exported := search.SpreadPoints(pts, *exportTop)
		prefix := fmt.Sprintf("NAS-%s-%s", *task, dev.Class)
		file, names, err := search.ExportFrontier(exported, prefix, strings.Join(os.Args, " "))
		if err != nil {
			log.Fatal(err)
		}
		if *exportPath != "" {
			if err := search.WriteSpecFile(*exportPath, file); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nexported %d frontier models to %s (serve with: serve -specs %s -models %s)\n",
				len(names), *exportPath, *exportPath, strings.Join(names, ","))
		}
		if *exportCascade != "" {
			// The cascade spans the *exported* points — its stage names are
			// the spec-file names a server loads, so the two files travel
			// together.
			spec, err := search.ExportCascade(exported, prefix, *cascadeThreshold, *cascadeStages)
			if err != nil {
				log.Fatal(err)
			}
			if err := search.WriteCascadeFile(*exportCascade, spec); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("exported a %d-stage cascade graph to %s (register with: curl -X PUT .../v2/graphs/%s -d @%s)\n",
				len(spec.Root.Children), *exportCascade, spec.Name, *exportCascade)
		}
		if *publish != "" {
			// Hot-load the frontier into the running server through its
			// /v2/repository admin API — the zero-restart serving path.
			loaded, err := search.PublishFrontier(ctx, *publish, file)
			if err != nil {
				if len(loaded) > 0 {
					log.Printf("partially published %d models (%s) before failing", len(loaded), strings.Join(loaded, ","))
				}
				log.Fatal(err)
			}
			fmt.Printf("published %d frontier models to %s with zero restarts: %s\n",
				len(loaded), *publish, strings.Join(loaded, ","))
		}
	}
}

// printTable prints points in the style of the paper's Table 4 (per-model
// resource and latency columns); the trained column shows "-" for points
// stage two did not train.
func printTable(pts []search.Point) {
	fmt.Printf("%-10s %-8s %8s %10s %10s %10s %10s %8s\n",
		"trial", "source", "acc(%)", "trained(%)", "lat(ms)", "SRAM(KB)", "flash(KB)", "MOps")
	for _, p := range pts {
		m := p.Metrics
		trained := "-"
		if m.TrainedAccuracy > 0 {
			trained = fmt.Sprintf("%.2f", m.TrainedAccuracy)
		}
		fmt.Printf("trial-%03d  %-8s %8.2f %10s %10.2f %10.1f %10.1f %8.1f\n", p.Trial, p.Source,
			m.AccuracyProxy, trained, m.LatencyS*1e3, float64(m.TotalSRAMBytes)/1024, float64(m.TotalFlashBytes)/1024, float64(m.Ops)/1e6)
	}
}
