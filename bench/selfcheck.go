package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// contract is BENCHMARK.json as far as the self-check and the smoke test
// read it.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (exclusive method), which is how the acceptance check reads it.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return (at(0.75) - at(0.25)) / median(s)
}

// printedP90 is the one printed-only statistic the self-check tabulates
// beside the metrics: the evidence for keeping it out of them.
const printedP90 = "latency_p90_ms_best_windows"

// runSelfcheck measures the benchmark's own noise: two sets of runs of
// this same binary, one fresh process per run so peak RSS is per run,
// seeds 1..runs in both sets. It prints, per workload and end-to-end
// metric, both set medians, how much worse the second is, each set's
// quartile spread, and the bound from BENCHMARK.json; the unbounded 90th
// latency percentile gets a row of its own.
func runSelfcheck(runs int, seconds float64) error {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[set][w.name] = map[string][]float64{}
		}
		for seed := 1; seed <= runs; seed++ {
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, "selfcheck: set %d seed %d %s\n", set+1, seed, w.name)
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				if len(lines) < 2 {
					return fmt.Errorf("%s seed %d: printed %d lines, want a record and a result", w.name, seed, len(lines))
				}
				var rec record
				if err := json.Unmarshal(lines[len(lines)-2], &rec); err != nil {
					return fmt.Errorf("%s seed %d: line before last is not a record: %w", w.name, seed, err)
				}
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: last line is not a result: %w", w.name, seed, err)
				}
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d units failed", w.name, seed, res.Failed, res.Attempted)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: %s\n", lines[len(lines)-1])
				fmt.Fprintf(os.Stderr, "selfcheck: %s %v\n", printedP90, rec.Printed[printedP90])
				for name, v := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], v.Value)
				}
				values[set][w.name][printedP90] = append(values[set][w.name][printedP90], rec.Printed[printedP90])
			}
		}
	}

	host := hostFingerprint()
	fmt.Printf("Same-code noise: 2 sets x %d runs (seeds 1..%d), %g s timed phase, commit %s.\n", runs, runs, seconds, gitSHA())
	fmt.Printf("Host: %d x %s, %s, GOMAXPROCS %d, GOGC %s. 0 failed units in all %d runs.\n\n",
		host.NProc, host.CPUModel, host.GoVersion, host.GOMAXPROCS, host.GOGC, 2*runs*len(workloads))
	fmt.Println("| workload | metric | set 1 median | set 2 median | set 2 worse by | spread 1 | spread 2 | bound | fits |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range workloads {
		// row prints one metric; bound 0 marks a printed-only statistic.
		row := func(name, better string, bound float64) {
			a, b := values[0][w.name][name], values[1][w.name][name]
			worse := (median(b) - median(a)) / median(a)
			if better == "higher" {
				worse = -worse
			}
			// The acceptance rule: spreads within the bound (setup_s is
			// exempt), second median not worse by more than the bound.
			// The target is a third of the bound for the spreads and half
			// for the medians.
			sa, sb := spread(a), spread(b)
			widest := max(sa, sb)
			if name == "setup_s" {
				widest = 0
			}
			boundText, fits := fmt.Sprintf("%.0f%%", 100*bound), "yes"
			switch {
			case bound == 0:
				boundText, fits = "none", "printed only"
			case worse > bound || widest > bound:
				fits = "NO"
			case worse > bound/2 || widest > bound/3:
				fits = "marginal"
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %s | %s |\n",
				w.name, name, median(a), median(b), 100*worse, 100*sa, 100*sb, boundText, fits)
		}
		for _, d := range c.EndToEnd {
			row(d.Name, d.Better, d.Bound)
		}
		row(printedP90, "lower", 0)
	}
	return nil
}
