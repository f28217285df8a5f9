package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"micronets/internal/arch"
	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

func zooSpec(name string) (*arch.Spec, error) {
	e, err := zoo.Get(name)
	if err != nil {
		return nil, err
	}
	if e.Spec == nil {
		return nil, fmt.Errorf("experiments: %s has no spec", name)
	}
	return e.Spec, nil
}

// Measured is one model's simulated deployment measurement across devices.
type Measured struct {
	Name    string
	Task    string
	Paper   zoo.PaperStats // the paper's published numbers (Table 4)
	MOps    float64
	FlashKB float64
	SRAMKB  float64
	// Latency/energy per device class; NaN-equivalent 0 when not deployable.
	LatS, LatM, LatL                      float64
	EnergyS, EnergyM                      float64
	DeployableS, DeployableM, DeployableL bool
	Notes                                 string
}

// MeasureZoo deploys every constructible zoo entry of a task and measures
// it on all three MCUs; stats-only entries are passed through with the
// paper's numbers (marked in Notes).
func MeasureZoo(task string, seed int64) ([]Measured, error) {
	var out []Measured
	for _, e := range zoo.ByTask(task) {
		m := Measured{Name: e.Name, Task: e.Task, Paper: e.Paper, Notes: e.Notes}
		if e.Spec == nil {
			m.MOps = e.Paper.MOps
			m.FlashKB = e.Paper.FlashKB
			m.SRAMKB = e.Paper.SRAMKB
			m.LatS, m.LatM, m.LatL = e.Paper.LatS, e.Paper.LatM, e.Paper.LatL
			m.Notes = strings.TrimSpace("paper numbers; " + e.Notes)
			m.DeployableS = paperFits(e.Paper, mcu.F446RE)
			m.DeployableM = paperFits(e.Paper, mcu.F746ZG)
			m.DeployableL = paperFits(e.Paper, mcu.F767ZI)
			out = append(out, m)
			continue
		}
		a, err := e.Spec.Analyze()
		if err != nil {
			return nil, fmt.Errorf("analyzing %s: %w", e.Name, err)
		}
		rng := rand.New(rand.NewSource(seed))
		gm, err := graph.FromSpec(e.Spec, rng, graph.LowerOptions{AppendSoftmax: e.Spec.NumClasses > 1})
		if err != nil {
			return nil, fmt.Errorf("lowering %s: %w", e.Name, err)
		}
		rep, err := tflm.Report(gm, nil)
		if err != nil {
			return nil, err
		}
		m.MOps = float64(gm.TotalOps()) / 1e6
		m.FlashKB = float64(rep.ModelFlash()) / 1024
		m.SRAMKB = float64(rep.ModelSRAM()) / 1024
		check := func(dev *mcu.Device) bool {
			return a.Deployable && rep.FitsDevice(dev.SRAMBytes(), dev.FlashBytes()) == nil
		}
		m.DeployableS = check(mcu.F446RE)
		m.DeployableM = check(mcu.F746ZG)
		m.DeployableL = check(mcu.F767ZI)
		if m.DeployableS {
			m.LatS = mcu.Latency(gm, mcu.F446RE)
			m.EnergyS = mcu.EnergyPerInferenceMJ(gm, mcu.F446RE)
		}
		if m.DeployableM {
			m.LatM = mcu.Latency(gm, mcu.F746ZG)
			m.EnergyM = mcu.EnergyPerInferenceMJ(gm, mcu.F746ZG)
		}
		if m.DeployableL {
			m.LatL = mcu.Latency(gm, mcu.F767ZI)
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
	spec, err := zooSpec(modelName)
	if err != nil {
		return "", err
	}
	m, err := graph.FromSpec(spec, rand.New(rand.NewSource(seed)), graph.LowerOptions{AppendSoftmax: true})
	if err != nil {
		return "", err
	}
	rep, err := tflm.Report(m, nil)
	if err != nil {
		return "", err
	}
	dev := mcu.F746ZG
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: memory occupancy of %s on %s\n", modelName, dev.Name)
	b.WriteString(rep.String())
	fmt.Fprintf(&b, "  Free SRAM : %.1f KB of %d KB\n",
		float64(dev.SRAMBytes()-rep.TotalSRAM())/1024, dev.SRAMKB)
	fmt.Fprintf(&b, "  Free flash: %.1f KB of %d KB\n",
		float64(dev.FlashBytes()-rep.TotalFlash())/1024, dev.FlashKB)
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
	latFront := ParetoFront(ms, func(m Measured) float64 { return m.LatM })
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
			m.Name, m.Paper.Accuracy, m.LatM, m.SRAMKB, m.FlashKB,
			m.DeployableS, m.DeployableM, m.DeployableL, strings.Join(tags, ","))
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
		fmt.Fprintf(&b, "%-22s %7.2f %10.0f %10.1f\n", m.Name, m.Paper.Accuracy, m.LatM*1000, m.SRAMKB)
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
		spec, err := zooSpec(v.spec)
		if err != nil {
			return "", err
		}
		m, err := graph.FromSpec(spec, rand.New(rand.NewSource(seed)), graph.LowerOptions{
			WeightBits: v.wBits, ActBits: v.aBits, AppendSoftmax: true,
		})
		if err != nil {
			return "", err
		}
		rep, err := tflm.Report(m, nil)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-26s %8.1f %10.3f %12.1f %10.1f\n",
			v.name, paperAcc[v.name], mcu.Latency(m, mcu.F746ZG),
			float64(rep.ModelFlash())/1024, float64(rep.ModelSRAM())/1024)
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
		switch {
		case m.DeployableS:
			lat, target = m.LatS, "S"
		case m.DeployableM:
			lat, target = m.LatM, "M"
		case m.DeployableL:
			lat, target = m.LatL, "L"
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
				f(m.LatS), f(p.LatS), f(m.LatM), f(p.LatM), f(m.LatL), f(p.LatL), fe(m.EnergyS), fe(m.EnergyM))
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
		spec, err := zooSpec(name)
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
		spec, err := zooSpec(name)
		if err != nil {
			return "", err
		}
		for _, dev := range []*mcu.Device{mcu.F446RE, mcu.F746ZG} {
			m, err := graph.FromSpec(spec, rand.New(rand.NewSource(seed)), graph.LowerOptions{AppendSoftmax: true})
			if err != nil {
				return "", err
			}
			rep, err := tflm.Report(m, nil)
			if err != nil {
				return "", err
			}
			if rep.FitsDevice(dev.SRAMBytes(), dev.FlashBytes()) != nil {
				continue
			}
			trace := mcu.CurrentTrace(m, dev, 1.0, 0.001, 2.0, rand.New(rand.NewSource(seed)))
			avg := mcu.AverageCurrentMA(trace)
			fmt.Fprintf(&b, "%-18s %-14s %10.3f %12.1f %12.1f %12.1f\n",
				name, dev.Name, mcu.Latency(m, dev),
				mcu.ActivePowerMW(m, dev)/dev.SupplyVoltage, avg, avg*dev.SupplyVoltage)
		}
	}
	return b.String(), nil
}
