package mcu

import (
	"math"
	"math/rand"
	"testing"

	"micronets/internal/graph"
	"micronets/internal/zoo"
)

func model(t *testing.T, name string, seed int64) *graph.Model {
	t.Helper()
	e, err := zoo.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(seed)), graph.LowerOptions{AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// latency is ModelLatency's total, failing the test on an error.
func latency(t *testing.T, m *graph.Model, dev *Device) float64 {
	t.Helper()
	lat, _, err := ModelLatency(m, dev)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

// deploy is Deploy, failing the test on an error.
func deploy(t *testing.T, m *graph.Model, dev *Device) *Deployment {
	t.Helper()
	d, err := Deploy(m, dev)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceDB(t *testing.T) {
	if len(Devices()) != 3 {
		t.Fatal("expected 3 devices (Table 1)")
	}
	for _, class := range []string{"S", "M", "L"} {
		d, err := ByClass(class)
		if err != nil {
			t.Fatal(err)
		}
		if d.Class != class {
			t.Fatalf("class mismatch for %s", class)
		}
	}
	if _, err := ByClass("X"); err == nil {
		t.Fatal("unknown class must error")
	}
	if F746ZG.SRAMKB != 320 || F746ZG.FlashKB != 1024 {
		t.Fatalf("F746ZG specs wrong: %+v", F746ZG)
	}
}

// TestPaperLatencyCalibration pins model latencies to Table 4 within 10%.
func TestPaperLatencyCalibration(t *testing.T) {
	cases := []struct {
		name     string
		dev      *Device
		paperSec float64
	}{
		{"MicroNet-KWS-M", F746ZG, 0.187},
		{"MicroNet-KWS-S", F746ZG, 0.109},
		{"MicroNet-KWS-L", F746ZG, 0.610},
		{"MicroNet-KWS-M", F446RE, 0.426},
		{"MicroNet-KWS-S", F446RE, 0.250},
		{"MicroNet-AD-M", F746ZG, 0.608},
		{"DSCNN-L", F746ZG, 0.515},
		{"MicroNet-VWW-1", F746ZG, 1.133},
	}
	for _, c := range cases {
		m := model(t, c.name, 1)
		got := latency(t, m, c.dev)
		if math.Abs(got-c.paperSec)/c.paperSec > 0.10 {
			t.Errorf("%s on %s: %.3fs vs paper %.3fs (>10%%)", c.name, c.dev.Name, got, c.paperSec)
		}
	}
}

func TestM7TwiceAsFastAsM4(t *testing.T) {
	m := model(t, "MicroNet-KWS-M", 2)
	ratio := latency(t, m, F446RE) / latency(t, m, F746ZG)
	if ratio < 1.8 || ratio > 2.7 {
		t.Fatalf("M4/M7 latency ratio %.2f outside ~2x (§3.1)", ratio)
	}
}

func TestDivisibleBy4FastPath(t *testing.T) {
	// §3.2: increasing a conv layer's channels from 138 to 140 REDUCES
	// latency (the paper measured 37.5 -> 21.5 ms).
	mk := func(c int) *graph.Model {
		spec := zoo.DSCNN("S")
		spec.Blocks[1].OutC = c
		spec.Blocks[2].OutC = c
		m, err := graph.FromSpec(spec, rand.New(rand.NewSource(3)), graph.LowerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	l138 := latency(t, mk(138), F767ZI)
	l140 := latency(t, mk(140), F767ZI)
	if l140 >= l138 {
		t.Fatalf("140 channels (%.4fs) must be faster than 138 (%.4fs)", l140, l138)
	}
	if l138/l140 < 1.2 {
		t.Fatalf("÷4 speedup only %.2fx, want substantial", l138/l140)
	}
}

func TestDepthwiseSlowerPerOp(t *testing.T) {
	m := model(t, "MicroNet-KWS-M", 4)
	_, layers, err := ModelLatency(m, F767ZI)
	if err != nil {
		t.Fatal(err)
	}
	var convTp, dwTp []float64
	for i, op := range m.Ops {
		if layers[i].Seconds <= 0 || op.MACs(m) == 0 {
			continue
		}
		tp := float64(op.Ops(m)) / layers[i].Seconds
		switch op.Kind {
		case graph.OpConv2D:
			convTp = append(convTp, tp)
		case graph.OpDWConv2D:
			dwTp = append(dwTp, tp)
		}
	}
	avg := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	if avg(convTp) < 2*avg(dwTp) {
		t.Fatalf("conv throughput (%.0f) should be >> dwconv (%.0f) per Figure 3", avg(convTp), avg(dwTp))
	}
}

func TestLatencyScaleInvariance(t *testing.T) {
	// Modeled latency must be deterministic for the same model.
	m := model(t, "MicroNet-KWS-S", 5)
	if latency(t, m, F746ZG) != latency(t, m, F746ZG) {
		t.Fatal("latency model must be deterministic")
	}
}

func TestPowerIsModelIndependent(t *testing.T) {
	devs := []*Device{F446RE, F746ZG}
	models := []string{"MicroNet-KWS-S", "MicroNet-KWS-M", "MicroNet-KWS-L", "DSCNN-S", "DSCNN-M"}
	for _, dev := range devs {
		var ps []float64
		for i, name := range models {
			ps = append(ps, ActivePowerMW(model(t, name, int64(i)), dev))
		}
		var sum, sumSq float64
		for _, p := range ps {
			sum += p
			sumSq += p * p
		}
		mean := sum / float64(len(ps))
		sd := math.Sqrt(sumSq/float64(len(ps)) - mean*mean)
		if sd/mean > 0.03 {
			t.Fatalf("power σ/µ = %v on %s, must be tiny (§3.4)", sd/mean, dev.Name)
		}
		if math.Abs(mean-dev.ActiveMW)/dev.ActiveMW > 0.05 {
			t.Fatalf("mean power %v far from device constant %v", mean, dev.ActiveMW)
		}
	}
}

// TestEnergyEqualsPowerTimesLatency pins Deploy's energy to its own power
// times its own latency, bit for bit.
func TestEnergyEqualsPowerTimesLatency(t *testing.T) {
	m := model(t, "MicroNet-KWS-M", 8)
	d := deploy(t, m, F746ZG)
	if d.LatencySeconds != latency(t, m, F746ZG) || d.ActivePowerMW != ActivePowerMW(m, F746ZG) {
		t.Fatalf("deployment latency %v, power %v differ from the models'", d.LatencySeconds, d.ActivePowerMW)
	}
	if want := d.ActivePowerMW * d.LatencySeconds; d.EnergyMJ != want {
		t.Fatalf("energy %v != power*latency %v", d.EnergyMJ, want)
	}
}

func TestSmallMCULowerEnergyDespiteSlower(t *testing.T) {
	// §3.4: "executing the same model on a smaller MCU reduces the total
	// energy consumption despite an increase in latency."
	m := model(t, "MicroNet-KWS-S", 9)
	if latency(t, m, F446RE) <= latency(t, m, F746ZG) {
		t.Fatal("small MCU must be slower")
	}
	if deploy(t, m, F446RE).EnergyMJ >= deploy(t, m, F746ZG).EnergyMJ {
		t.Fatal("small MCU must use less energy per inference")
	}
}

func TestCurrentTraceShape(t *testing.T) {
	m := model(t, "MicroNet-KWS-S", 11)
	rng := rand.New(rand.NewSource(12))
	d := deploy(t, m, F446RE)
	trace := CurrentTrace(d, 1.0, 0.001, 2.0, rng)
	if len(trace) != 2000 {
		t.Fatalf("trace samples = %d", len(trace))
	}
	lat := d.LatencySeconds
	activeMA := d.ActivePowerMW / F446RE.SupplyVoltage
	// A sample mid-inference is near active current; one mid-sleep is near
	// the sleep floor.
	midActive := trace[int(lat/2/0.001)]
	if math.Abs(midActive.CurrentMA-activeMA)/activeMA > 0.1 {
		t.Fatalf("active sample %v far from %v", midActive.CurrentMA, activeMA)
	}
	midSleep := trace[int((lat+1.0)/2/0.001)]
	if midSleep.CurrentMA > activeMA/4 {
		t.Fatalf("sleep sample %v too high", midSleep.CurrentMA)
	}
	if AverageCurrentMA(trace) <= midSleep.CurrentMA {
		t.Fatal("average must exceed sleep current")
	}
}

func TestInt4KernelOverheadBand(t *testing.T) {
	// Figure 10: 4-bit/4-bit adds ~19-29% latency, larger for KWS-L.
	e, _ := zoo.Get("MicroNet-KWS-M")
	m8, _ := graph.FromSpec(e.Spec, rand.New(rand.NewSource(1)), graph.LowerOptions{})
	m4, _ := graph.FromSpec(e.Spec, rand.New(rand.NewSource(1)), graph.LowerOptions{WeightBits: 4, ActBits: 4})
	incM := latency(t, m4, F746ZG)/latency(t, m8, F746ZG) - 1
	if incM < 0.10 || incM > 0.40 {
		t.Fatalf("KWS-M 4-bit overhead %.1f%% outside plausible band", incM*100)
	}
	el, _ := zoo.Get("MicroNet-KWS-L")
	l8, _ := graph.FromSpec(el.Spec, rand.New(rand.NewSource(1)), graph.LowerOptions{})
	l4, _ := graph.FromSpec(el.Spec, rand.New(rand.NewSource(1)), graph.LowerOptions{WeightBits: 4, ActBits: 4})
	incL := latency(t, l4, F746ZG)/latency(t, l8, F746ZG) - 1
	if incL <= incM {
		t.Fatalf("KWS-L overhead (%.1f%%) must exceed KWS-M (%.1f%%) per Figure 10", incL*100, incM*100)
	}
}
