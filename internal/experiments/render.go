package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/zoo"
)

// Experiment is one paper table or figure: its `cmd/bench -exp` id and
// its text renderer at a seed.
type Experiment struct {
	ID     string
	Render func(seed int64) (string, error)
}

// Experiments lists every paper table and figure in the order
// `cmd/bench` prints them. TestRenderDigests pins each one's text at
// seed 42, the seed cmd/bench uses.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", func(int64) (string, error) { return Table1(), nil }},
		{"fig2", func(seed int64) (string, error) { return Figure2("MicroNet-KWS-L", seed) }},
		{"fig3", renderFigure3},
		{"fig4", renderFigure4},
		{"fig5", renderFigure5},
		{"table5", func(int64) (string, error) { return Table5(), nil }},
		{"fig7", func(seed int64) (string, error) { return RenderPareto("kws", seed) }},
		{"fig8", func(seed int64) (string, error) { return RenderPareto("vww", seed) }},
		{"pareto-ad", func(seed int64) (string, error) { return RenderPareto("ad", seed) }},
		{"fig9", Figure9},
		{"fig10", renderFigure10},
		{"fig11", Figure11},
		{"table2", Table2},
		{"table3", Table3},
		{"table4", Table4},
		{"div4", renderDiv4},
	}
}

func renderFigure3(seed int64) (string, error) {
	pts, err := Figure3(60, seed)
	if err != nil {
		return "", err
	}
	spread := ThroughputSpread(pts)
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

func renderFigure4(seed int64) (string, error) {
	series, err := Figure4(120, seed)
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

func renderFigure5(seed int64) (string, error) {
	series, err := Figure5(400, seed)
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

func renderFigure10(seed int64) (string, error) {
	rows, err := Figure10(seed)
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

// renderDiv4 reproduces the §3.2 observation that a conv layer with
// channels divisible by four is dramatically faster (paper: 138->140
// channels took 37.5 ms to 21.5 ms, a 57% speedup +> 1.74x).
func renderDiv4(seed int64) (string, error) {
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
