// Command bench regenerates the paper's tables and figures as text
// reports. Host performance is measured by the BENCHMARK.json harness
// in bench/, and the architecture search runs from cmd/search, not here.
//
// Usage:
//
//	bench                 # run everything
//	bench -exp fig4       # one experiment: table1..table5, fig2..fig11, div4
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"micronets/internal/experiments"
	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/zoo"
)

const seed = 42

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	exp := flag.String("exp", "all", "experiment id (table1..table5, fig2..fig11, div4) or 'all'")
	flag.Parse()

	runners := []struct {
		id string
		fn func() (string, error)
	}{
		{"table1", func() (string, error) { return experiments.Table1(), nil }},
		{"fig2", func() (string, error) { return experiments.Figure2("MicroNet-KWS-L", seed) }},
		{"fig3", runFig3},
		{"fig4", runFig4},
		{"fig5", runFig5},
		{"table5", func() (string, error) { return experiments.Table5(), nil }},
		{"fig7", func() (string, error) { return experiments.RenderPareto("kws", seed) }},
		{"fig8", func() (string, error) { return experiments.RenderPareto("vww", seed) }},
		{"fig9", func() (string, error) { return experiments.Figure9(seed) }},
		{"fig10", runFig10},
		{"fig11", func() (string, error) { return experiments.Figure11(seed) }},
		{"table2", func() (string, error) { return experiments.Table2(seed) }},
		{"table3", func() (string, error) { return experiments.Table3(seed) }},
		{"table4", func() (string, error) { return experiments.Table4(seed) }},
		{"div4", runDiv4},
	}
	ran := false
	for _, r := range runners {
		if *exp != "all" && r.id != *exp {
			continue
		}
		ran = true
		out, err := r.fn()
		if err != nil {
			log.Fatalf("%s: %v", r.id, err)
		}
		fmt.Printf("=== %s ===\n%s\n", r.id, out)
	}
	if !ran {
		log.Fatalf("unknown experiment %q", *exp)
	}
}

func runFig3() (string, error) {
	pts, err := experiments.Figure3(60, seed)
	if err != nil {
		return "", err
	}
	spread := experiments.ThroughputSpread(pts)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: layer latency vs ops on %s (%d layers)\n", mcu.F767ZI.Name, len(pts))
	fmt.Fprintf(&b, "%-8s %12s %12s %12s\n", "kind", "p10 Mops/s", "med Mops/s", "p90 Mops/s")
	for _, k := range []string{"conv", "fc", "dwconv"} {
		s := spread[k]
		fmt.Fprintf(&b, "%-8s %12.1f %12.1f %12.1f\n", k, s[0], s[1], s[2])
	}
	b.WriteString("(conv/fc sustain higher ops/s than depthwise, with wide per-layer spread)\n")
	return b.String(), nil
}

func runFig4() (string, error) {
	series, err := experiments.Figure4(120, seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: whole-model latency vs op count (random backbone samples)\n")
	fmt.Fprintf(&b, "%-8s %-14s %8s %10s %14s\n", "backbone", "device", "models", "r^2", "Mops/s (1/slope)")
	for _, s := range series {
		fmt.Fprintf(&b, "%-8s %-14s %8d %10.4f %14.1f\n",
			s.Backbone, s.Device, len(s.Points), s.R2, s.ThroughputMops)
	}
	b.WriteString("(latency is linear in ops per backbone; KWS backbone ~40% higher throughput; M7 ~2x M4)\n")
	return b.String(), nil
}

func runFig5() (string, error) {
	series, err := experiments.Figure5(400, seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: power and energy of 400 random image-backbone models\n")
	fmt.Fprintf(&b, "%-14s %14s %12s %16s\n", "device", "power σ/µ", "energy r^2", "mJ per Mop")
	for _, s := range series {
		fmt.Fprintf(&b, "%-14s %14.5f %12.4f %16.4f\n",
			s.Device, s.PowerSigmaMu, s.EnergyR2, s.EnergySlopeMJ)
	}
	b.WriteString("(power is model-independent; energy is linear in ops; smaller MCU uses less energy despite longer latency)\n")
	return b.String(), nil
}

func runFig10() (string, error) {
	rows, err := experiments.Figure10(seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: latency increase of 4-bit kernels vs 8-bit on %s\n", mcu.F746ZG.Name)
	fmt.Fprintf(&b, "%-18s %10s %14s %14s\n", "model", "8b lat(s)", "4bA/8bW (+%)", "4bA/4bW (+%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10.3f %14.2f %14.2f\n",
			r.Model, r.Lat8w8a, r.Lat4a8wIncreasePct, r.Lat4a4wIncreasePct)
	}
	b.WriteString("(paper: +19.28% KWS-M, +28.8% KWS-L for 4bA/4bW)\n")
	return b.String(), nil
}

// runDiv4 reproduces the §3.2 observation that a conv layer with channels
// divisible by four is dramatically faster (paper: 138->140 channels took
// 37.5 ms to 21.5 ms, a 57% speedup +> 1.74x).
func runDiv4() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "CMSIS-NN channel divisibility fast path (§3.2)\n")
	fmt.Fprintf(&b, "%-10s %12s\n", "channels", "latency(ms)")
	for _, c := range []int{136, 137, 138, 139, 140, 141, 142, 143, 144} {
		spec := zoo.DSCNN("S")
		spec.Blocks[1].OutC = c
		spec.Blocks[2].OutC = c
		m, err := graph.FromSpec(spec, rand.New(rand.NewSource(seed)), graph.LowerOptions{})
		if err != nil {
			return "", err
		}
		// Time just the affected pointwise convs.
		_, lats, err := mcu.ModelLatency(m, mcu.F767ZI)
		if err != nil {
			return "", err
		}
		var ms float64
		for i, op := range m.Ops {
			if op.Kind == graph.OpConv2D && op.KH == 1 {
				ms += lats[i].Seconds * 1000
			}
		}
		fmt.Fprintf(&b, "%-10d %12.2f\n", c, ms)
	}
	return b.String(), nil
}
