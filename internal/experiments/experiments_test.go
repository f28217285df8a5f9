package experiments

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLinearFitRecoversPlantedLine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts []XY
	for i := 0; i < 100; i++ {
		x := rng.Float64() * 50
		pts = append(pts, XY{X: x, Y: 3*x + 2 + rng.NormFloat64()*0.01})
	}
	slope, intercept, r2 := LinearFit(pts)
	if math.Abs(slope-3) > 0.01 || math.Abs(intercept-2) > 0.1 {
		t.Fatalf("fit = %v x + %v", slope, intercept)
	}
	if r2 < 0.999 {
		t.Fatalf("r2 = %v", r2)
	}
}

func TestQuickLinearFitPerfectOnLines(t *testing.T) {
	f := func(m, b float64, seed int64) bool {
		if math.IsNaN(m) || math.IsInf(m, 0) || math.Abs(m) > 1e6 ||
			math.IsNaN(b) || math.IsInf(b, 0) || math.Abs(b) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		var pts []XY
		for i := 0; i < 20; i++ {
			x := rng.Float64()*100 - 50
			pts = append(pts, XY{X: x, Y: m*x + b})
		}
		slope, intercept, r2 := LinearFit(pts)
		scale := math.Max(1, math.Abs(m))
		return math.Abs(slope-m) < 1e-6*scale && math.Abs(intercept-b) < 1e-4*scale && r2 > 0.999999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFigure4PaperClaims asserts the central §3.3 result: per-backbone
// linearity (r² in the paper's 0.95..0.99 band), a ~40% backbone
// throughput gap, and ~2x between M7 and M4.
func TestFigure4PaperClaims(t *testing.T) {
	series, err := Figure4(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	tp := map[string]float64{}
	for _, s := range series {
		if s.R2 < 0.93 || s.R2 > 0.999 {
			t.Errorf("%s/%s r2=%.3f outside band", s.Backbone, s.Device, s.R2)
		}
		tp[s.Backbone+"/"+s.Device] = s.ThroughputMops
	}
	gap := tp["kws/STM32F746ZG"] / tp["image/STM32F746ZG"]
	if gap < 1.2 || gap > 1.7 {
		t.Errorf("backbone throughput gap %.2f, want ~1.4", gap)
	}
	m7m4 := tp["kws/STM32F746ZG"] / tp["kws/STM32F446RE"]
	if m7m4 < 1.8 || m7m4 > 2.7 {
		t.Errorf("M7/M4 ratio %.2f, want ~2", m7m4)
	}
}

// TestFigure5PaperClaims asserts §3.4: power constant (σ/µ ~ 0.007),
// energy linear in ops, and the smaller MCU cheaper in energy.
func TestFigure5PaperClaims(t *testing.T) {
	series, err := Figure5(120, 42)
	if err != nil {
		t.Fatal(err)
	}
	var slopeS, slopeM float64
	for _, s := range series {
		if s.PowerSigmaMu > 0.02 {
			t.Errorf("%s power σ/µ = %v, want ~0.007", s.Device, s.PowerSigmaMu)
		}
		if s.EnergyR2 < 0.9 {
			t.Errorf("%s energy r2 = %v", s.Device, s.EnergyR2)
		}
		if s.Device == "STM32F446RE" {
			slopeS = s.EnergySlopeMJ
		} else {
			slopeM = s.EnergySlopeMJ
		}
	}
	if slopeS >= slopeM {
		t.Errorf("small MCU energy slope (%.3f) must be below medium (%.3f)", slopeS, slopeM)
	}
}

func TestFigure3Spread(t *testing.T) {
	pts, err := Figure3(25, 42)
	if err != nil {
		t.Fatal(err)
	}
	spread := ThroughputSpread(pts)
	if spread["conv"][1] < 2*spread["dwconv"][1] {
		t.Errorf("conv median throughput %.0f not >> dwconv %.0f", spread["conv"][1], spread["dwconv"][1])
	}
	if spread["conv"][2] < 1.5*spread["conv"][0] {
		t.Errorf("conv spread too narrow: %v (Figure 3 shows wide per-layer variation)", spread["conv"])
	}
}

func TestFigure10Ordering(t *testing.T) {
	rows, err := Figure10(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Lat4a8wIncreasePct <= 0 || r.Lat4a4wIncreasePct <= r.Lat4a8wIncreasePct {
			t.Errorf("%s: overheads must be positive and 4w4a > 4a8w: %+v", r.Model, r)
		}
	}
	if rows[1].Lat4a4wIncreasePct <= rows[0].Lat4a4wIncreasePct {
		t.Error("KWS-L overhead must exceed KWS-M (Figure 10)")
	}
}

func TestMeasureZooKWS(t *testing.T) {
	ms, err := MeasureZoo("kws", 42)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Measured{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	// Deployability decisions from §6.3 / Table 4.
	if !byName["MicroNet-KWS-S"].Deployable[0] {
		t.Error("KWS-S must fit the small MCU")
	}
	if !byName["MicroNet-KWS-M"].Deployable[0] {
		t.Error("KWS-M must fit the small MCU (paper: 'deployable on the smallest MCU')")
	}
	if byName["MicroNet-KWS-L"].Deployable[0] {
		t.Error("KWS-L must not fit the small MCU")
	}
	if !byName["MicroNet-KWS-L"].Deployable[1] {
		t.Error("KWS-L must fit the medium MCU")
	}
	if byName["MBNETV2-L"].Deployable[1] {
		t.Error("MBNETV2-L 'does not fit and is omitted' (§6.3)")
	}
}

// TestMicroNetsParetoOptimal asserts the headline claim: MicroNet KWS
// models are on the latency and flash Pareto fronts.
func TestMicroNetsParetoOptimal(t *testing.T) {
	ms, err := MeasureZoo("kws", 42)
	if err != nil {
		t.Fatal(err)
	}
	lat := ParetoFront(ms, func(m Measured) float64 { return m.Lat[1] })
	flash := ParetoFront(ms, func(m Measured) float64 { return m.FlashKB })
	for _, name := range []string{"MicroNet-KWS-S", "MicroNet-KWS-M", "MicroNet-KWS-L"} {
		if !OnFront(lat, name) {
			t.Errorf("%s not on the latency Pareto front", name)
		}
		if !OnFront(flash, name) {
			t.Errorf("%s not on the flash Pareto front", name)
		}
	}
}

func TestParetoFrontInvariants(t *testing.T) {
	ms, err := MeasureZoo("ad", 42)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(m Measured) float64 { return m.SRAMKB }
	front := ParetoFront(ms, cost)
	// No front point dominates another front point.
	for _, a := range front {
		for _, b := range front {
			if a.Name == b.Name {
				continue
			}
			if cost(a) <= cost(b) && a.Paper.Accuracy >= b.Paper.Accuracy &&
				(cost(a) < cost(b) || a.Paper.Accuracy > b.Paper.Accuracy) {
				t.Fatalf("front point %s dominates front point %s", a.Name, b.Name)
			}
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	if !strings.Contains(Table1(), "STM32F746ZG") {
		t.Error("Table1 missing device")
	}
	if !strings.Contains(Table5(), "MicroNet-KWS-L") {
		t.Error("Table5 missing model")
	}
	for _, f := range []func() (string, error){
		func() (string, error) { return Figure2("MicroNet-KWS-L", 42) },
		func() (string, error) { return RenderPareto("kws", 42) },
		func() (string, error) { return Table2(42) },
		func() (string, error) { return Table3(42) },
		func() (string, error) { return Figure11(42) },
		func() (string, error) { return Figure9(42) },
	} {
		out, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) < 50 {
			t.Fatalf("renderer output too short: %q", out)
		}
	}

	// Table 4 carries the paper's own system metrics beside ours: the
	// header names the p-columns, and MicroNet-KWS-L's row holds its
	// published 612 KB flash, 208.8 KB SRAM, 129 MOps and 0.610 s on M.
	out, err := Table4(42)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	for _, col := range []string{"pFlash", "pSRAM", "pMops", "pLatS", "pLatM", "pLatL"} {
		if !strings.Contains(lines[1], col) {
			t.Errorf("Table4 header lacks %s: %s", col, lines[1])
		}
	}
	for _, line := range lines {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "MicroNet-KWS-L" {
			if len(f) != 17 || f[4] != "612.0" || f[6] != "208.8" || f[8] != "129.0" || f[12] != "0.610" {
				t.Errorf("Table4 MicroNet-KWS-L row lacks the paper's numbers: %q", line)
			}
			return
		}
	}
	t.Error("Table4 has no MicroNet-KWS-L row")
}

func TestTable3ConvAENotDeployable(t *testing.T) {
	out, err := Table3(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Conv-AE") && !strings.Contains(line, "ND") {
			t.Fatalf("Conv-AE row must be ND: %s", line)
		}
	}
}

func TestFigure2MatchesPaperStructure(t *testing.T) {
	out, err := Figure2("MicroNet-KWS-L", 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"TF Micro interpreter : 4.0 KB", "TF Micro code        : 37.0 KB", "Free SRAM", "Free flash"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Figure 2 missing %q:\n%s", frag, out)
		}
	}
}
