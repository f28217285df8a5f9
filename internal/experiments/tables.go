package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// Measured is one model's simulated deployment measurement across devices.
type Measured struct {
	Name    string
	Task    string
	Paper   zoo.PaperStats // the paper's published numbers (Table 4)
	MOps    float64
	FlashKB float64
	SRAMKB  float64
	// Per device in mcu.Devices() order (S, M, L); latency and energy
	// are 0 where the model does not deploy.
	Lat, Energy [3]float64
	Deployable  [3]bool
	Notes       string
}

// MeasureZoo deploys every constructible zoo entry of a task and measures
// it on all three MCUs; stats-only entries are passed through with the
// paper's numbers (marked in Notes).
func MeasureZoo(task string, seed int64) ([]Measured, error) {
	var out []Measured
	for _, e := range zoo.ByTask(task) {
		m := Measured{Name: e.Name, Task: e.Task, Paper: e.Paper, Notes: e.Notes}
		if e.Spec == nil {
			m.MOps, m.FlashKB, m.SRAMKB = e.Paper.MOps, e.Paper.FlashKB, e.Paper.SRAMKB
			m.Lat = [3]float64{e.Paper.LatS, e.Paper.LatM, e.Paper.LatL}
			m.Notes = strings.TrimSpace("paper numbers; " + e.Notes)
			for i, dev := range mcu.Devices() {
				m.Deployable[i] = paperFits(e.Paper, dev)
			}
			out = append(out, m)
			continue
		}
		gm, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(seed)), graph.LowerOptions{AppendSoftmax: e.Spec.NumClasses > 1})
		if err != nil {
			return nil, fmt.Errorf("lowering %s: %w", e.Name, err)
		}
		m.MOps = float64(gm.TotalOps()) / 1e6
		for i, dev := range mcu.Devices() {
			d, err := mcu.Deploy(gm, dev)
			if err != nil {
				return nil, fmt.Errorf("deploying %s on %s: %w", e.Name, dev.Name, err)
			}
			m.FlashKB = float64(d.Report.ModelFlash()) / 1024
			m.SRAMKB = float64(d.Report.ModelSRAM()) / 1024
			if m.Deployable[i] = d.FitsErr == nil; m.Deployable[i] {
				m.Lat[i], m.Energy[i] = d.LatencySeconds, d.EnergyMJ
			}
		}
		out = append(out, m)
	}
	return out, nil
}

// paperFits judges a stats-only entry by its published SRAM and flash:
// they must fit what the device leaves beside the TFLM runtime's own
// memory (tflm.MemoryReport's fixed rows).
func paperFits(p zoo.PaperStats, dev *mcu.Device) bool {
	sramKB := float64(dev.SRAMBytes()-tflm.InterpreterSRAMBytes-tflm.OtherSRAMBytes) / 1024
	flashKB := float64(dev.FlashBytes()-tflm.RuntimeCodeFlashBytes-tflm.OtherFlashBytes) / 1024
	return p.SRAMKB < sramKB && p.FlashKB < flashKB
}

// ParetoFront returns the subset of points not dominated on (cost, value):
// a point is dominated if another has cost <= and value >= with one strict.
// Points with zero cost (not deployable) are excluded.
func ParetoFront(pts []Measured, cost func(Measured) float64) []Measured {
	var valid []Measured
	for _, p := range pts {
		if cost(p) > 0 {
			valid = append(valid, p)
		}
	}
	var front []Measured
	for _, p := range valid {
		dominated := false
		for _, q := range valid {
			if q.Name == p.Name {
				continue
			}
			if cost(q) <= cost(p) && q.Paper.Accuracy >= p.Paper.Accuracy &&
				(cost(q) < cost(p) || q.Paper.Accuracy > p.Paper.Accuracy) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool { return cost(front[i]) < cost(front[j]) })
	return front
}

// OnFront reports whether name is on the Pareto front.
func OnFront(front []Measured, name string) bool {
	for _, p := range front {
		if p.Name == name {
			return true
		}
	}
	return false
}

// Table1 renders the hardware comparison.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: TinyML hardware targeted in this work\n")
	fmt.Fprintf(&b, "%-14s %-11s %8s %9s %9s %8s\n", "Platform", "Arch", "SRAM", "eFlash", "Power", "Price")
	for _, d := range mcu.Devices() {
		fmt.Fprintf(&b, "%-14s %-11s %7dK %8dK %7.1fW $%.0f\n",
			d.Name, d.CPU, d.SRAMKB, d.FlashKB, d.ActiveMW/1000*2.2, d.PriceUSD)
	}
	return b.String()
}

// Figure2 renders the memory map for a KWS model on the medium MCU.
func Figure2(modelName string, seed int64) (string, error) {
	spec, err := zoo.Spec(modelName)
	if err != nil {
		return "", err
	}
	m, err := graph.FromSpec(spec, rand.New(rand.NewSource(seed)), graph.LowerOptions{AppendSoftmax: true})
	if err != nil {
		return "", err
	}
	dev := mcu.F746ZG
	d, err := mcu.Deploy(m, dev)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: memory occupancy of %s on %s\n", modelName, dev.Name)
	b.WriteString(d.Report.String())
	fmt.Fprintf(&b, "  Free SRAM : %.1f KB of %d KB\n",
		float64(dev.SRAMBytes()-d.Report.TotalSRAM())/1024, dev.SRAMKB)
	fmt.Fprintf(&b, "  Free flash: %.1f KB of %d KB\n",
		float64(dev.FlashBytes()-d.Report.TotalFlash())/1024, dev.FlashKB)
	return b.String(), nil
}

// RenderPareto renders a Figure 7/8-style comparison for one task: each
// model's accuracy (paper-reported), simulated latency, SRAM and flash,
// deployability, and whether it is Pareto-optimal on each axis.
func RenderPareto(task string, seed int64) (string, error) {
	ms, err := MeasureZoo(task, seed)
	if err != nil {
		return "", err
	}
	latFront := ParetoFront(ms, func(m Measured) float64 { return m.Lat[1] })
	sramFront := ParetoFront(ms, func(m Measured) float64 { return m.SRAMKB })
	flashFront := ParetoFront(ms, func(m Measured) float64 { return m.FlashKB })
	var b strings.Builder
	title := map[string]string{"kws": "Figure 7: KWS", "vww": "Figure 8: VWW", "ad": "Table 3 support: AD"}[task]
	fmt.Fprintf(&b, "%s accuracy/latency/memory comparison (accuracy: paper-reported; latency/memory: simulated)\n", title)
	fmt.Fprintf(&b, "%-22s %7s %9s %9s %9s %6s %6s %6s  %s\n",
		"model", "acc%", "latM(s)", "SRAM(KB)", "Flash(KB)", "fitS", "fitM", "fitL", "pareto")
	for _, m := range ms {
		var tags []string
		if OnFront(latFront, m.Name) {
			tags = append(tags, "lat")
		}
		if OnFront(sramFront, m.Name) {
			tags = append(tags, "sram")
		}
		if OnFront(flashFront, m.Name) {
			tags = append(tags, "flash")
		}
		fmt.Fprintf(&b, "%-22s %7.2f %9.3f %9.1f %9.1f %6v %6v %6v  %s\n",
			m.Name, m.Paper.Accuracy, m.Lat[1], m.SRAMKB, m.FlashKB,
			m.Deployable[0], m.Deployable[1], m.Deployable[2], strings.Join(tags, ","))
	}
	return b.String(), nil
}

// Figure11 renders the MCUNet comparison on KWS.
func Figure11(seed int64) (string, error) {
	ms, err := MeasureZoo("kws", seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: KWS on STM32F746 — MicroNets vs MCUNet (MCUNet points estimated from Lin et al. figures, as in the paper)\n")
	fmt.Fprintf(&b, "%-22s %7s %10s %10s\n", "model", "acc%", "lat(ms)", "SRAM(KB)")
	for _, m := range ms {
		if !strings.HasPrefix(m.Name, "MicroNet-KWS") && !strings.HasPrefix(m.Name, "DSCNN") {
			continue
		}
		fmt.Fprintf(&b, "%-22s %7.2f %10.0f %10.1f\n", m.Name, m.Paper.Accuracy, m.Lat[1]*1000, m.SRAMKB)
	}
	for _, p := range zoo.MCUNetKWS() {
		fmt.Fprintf(&b, "%-22s %7.2f %10.0f %10.1f\n", p.Name, p.Accuracy, p.LatencyMS, p.SRAMKB)
	}
	return b.String(), nil
}

// Table2 renders the 4-bit KWS study.
func Table2(seed int64) (string, error) {
	type variant struct {
		name         string
		spec         string
		wBits, aBits int
	}
	variants := []variant{
		{"MN-KWS-L (8-b W/8-b A)", "MicroNet-KWS-L", 8, 8},
		{"MN-KWS-M (8-b W/8-b A)", "MicroNet-KWS-M", 8, 8},
		{"MN-KWS-L (4-b W/4-b A)", "MicroNet-KWS-L", 4, 4},
	}
	paperAcc := map[string]float64{
		"MN-KWS-L (8-b W/8-b A)": 96.5,
		"MN-KWS-M (8-b W/8-b A)": 95.8,
		"MN-KWS-L (4-b W/4-b A)": 96.3,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: KWS results for 4-bit quantized MicroNet models (accuracy: paper; rest: simulated)\n")
	fmt.Fprintf(&b, "%-26s %8s %10s %12s %10s\n", "model", "acc%", "latM(s)", "size(KB)", "SRAM(KB)")
	for _, v := range variants {
		spec, err := zoo.Spec(v.spec)
		if err != nil {
			return "", err
		}
		m, err := graph.FromSpec(spec, rand.New(rand.NewSource(seed)), graph.LowerOptions{
			WeightBits: v.wBits, ActBits: v.aBits, AppendSoftmax: true,
		})
		if err != nil {
			return "", err
		}
		d, err := mcu.Deploy(m, mcu.F746ZG)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-26s %8.1f %10.3f %12.1f %10.1f\n",
			v.name, paperAcc[v.name], d.LatencySeconds,
			float64(d.Report.ModelFlash())/1024, float64(d.Report.ModelSRAM())/1024)
	}
	return b.String(), nil
}

// Table3 renders the anomaly-detection comparison with the uptime metric
// (latency / stride between successive inputs).
func Table3(seed int64) (string, error) {
	ms, err := MeasureZoo("ad", seed)
	if err != nil {
		return "", err
	}
	// Stride per model family (§6.4): our models 640 ms; FC-AE 32 ms;
	// MBNetV2-0.5AD 256 ms.
	stride := func(name string) float64 {
		switch {
		case strings.HasPrefix(name, "FC-AE"):
			return 0.032
		case name == "MBNETV2-0.5AD":
			return 0.256
		default:
			return 0.640
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: AD results (AUC: paper-reported; rest: simulated)\n")
	fmt.Fprintf(&b, "%-22s %8s %9s %10s %9s %10s %8s\n",
		"model", "AUC%", "Ops(M)", "Size(KB)", "Mem(KB)", "Uptime(%)", "target")
	for _, m := range ms {
		lat, target := 0.0, "ND"
		for i, dev := range mcu.Devices() {
			if m.Deployable[i] {
				lat, target = m.Lat[i], dev.Class
				break
			}
		}
		up := "ND"
		if target != "ND" {
			up = fmt.Sprintf("%.1f", lat/stride(m.Name)*100)
		}
		fmt.Fprintf(&b, "%-22s %8.2f %9.1f %10.1f %9.1f %10s %8s\n",
			m.Name, m.Paper.Accuracy, m.MOps, m.FlashKB, m.SRAMKB, up, target)
	}
	return b.String(), nil
}

// Table4 renders the full results table across tasks, each simulated
// system metric beside the paper's own (the p-columns; "-" where the
// paper reports none).
func Table4(seed int64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: full results (accuracy and p-columns: paper; other system metrics: simulated)\n")
	fmt.Fprintf(&b, "%-22s %-5s %7s %9s %9s %9s %9s %8s %8s %8s %8s %8s %8s %8s %8s %9s %9s\n",
		"model", "task", "acc%", "flashKB", "pFlash", "sramKB", "pSRAM", "Mops", "pMops",
		"latS", "pLatS", "latM", "pLatM", "latL", "pLatL", "engS(mJ)", "engM(mJ)")
	for _, task := range []string{"kws", "vww", "ad"} {
		ms, err := MeasureZoo(task, seed)
		if err != nil {
			return "", err
		}
		for _, m := range ms {
			f := func(v float64) string {
				if v == 0 {
					return "-"
				}
				return fmt.Sprintf("%.3f", v)
			}
			fe := func(v float64) string {
				if v == 0 {
					return "-"
				}
				return fmt.Sprintf("%.1f", v)
			}
			p := m.Paper
			fmt.Fprintf(&b, "%-22s %-5s %7.2f %9.1f %9s %9.1f %9s %8s %8s %8s %8s %8s %8s %8s %8s %9s %9s\n",
				m.Name, m.Task, p.Accuracy, m.FlashKB, fe(p.FlashKB), m.SRAMKB, fe(p.SRAMKB), fe(m.MOps), fe(p.MOps),
				f(m.Lat[0]), f(p.LatS), f(m.Lat[1]), f(p.LatM), f(m.Lat[2]), f(p.LatL), fe(m.Energy[0]), fe(m.Energy[1]))
		}
	}
	return b.String(), nil
}

// Table5 renders the model architecture listings.
func Table5() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5 / Figure 6: MicroNet model architectures\n")
	for _, name := range []string{
		"MicroNet-KWS-L", "MicroNet-KWS-M", "MicroNet-KWS-S",
		"MicroNet-AD-L", "MicroNet-AD-M", "MicroNet-AD-S",
		"MicroNet-VWW-1", "MicroNet-VWW-2", "MicroNet-VWW-3", "MicroNet-VWW-4",
	} {
		spec, err := zoo.Spec(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "  %s\n", spec)
	}
	return b.String()
}

// Figure9 renders the duty-cycled power traces: a small and a medium KWS
// model on both MCUs at one inference per second.
func Figure9(seed int64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: current draw at 1 inference/second (average includes deep sleep)\n")
	fmt.Fprintf(&b, "%-18s %-14s %10s %12s %12s %12s\n",
		"model", "device", "lat(s)", "active(mA)", "avg(mA)", "avgPwr(mW)")
	for _, name := range []string{"MicroNet-KWS-S", "MicroNet-KWS-M"} {
		spec, err := zoo.Spec(name)
		if err != nil {
			return "", err
		}
		m, err := graph.FromSpec(spec, rand.New(rand.NewSource(seed)), graph.LowerOptions{AppendSoftmax: true})
		if err != nil {
			return "", err
		}
		for _, dev := range []*mcu.Device{mcu.F446RE, mcu.F746ZG} {
			d, err := mcu.Deploy(m, dev)
			if err != nil {
				return "", err
			}
			if d.FitsErr != nil {
				continue
			}
			avg := mcu.AverageCurrentMA(mcu.CurrentTrace(d, 1.0, 0.001, 2.0, rand.New(rand.NewSource(seed))))
			fmt.Fprintf(&b, "%-18s %-14s %10.3f %12.1f %12.1f %12.1f\n",
				name, dev.Name, d.LatencySeconds,
				d.ActivePowerMW/dev.SupplyVoltage, avg, avg*dev.SupplyVoltage)
		}
	}
	return b.String(), nil
}
