package mcu

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"micronets/internal/arch"
	"micronets/internal/graph"
	"micronets/internal/zoo"
)

// lowerZoo lowers a zoo model with synthetic weights from seed 0 under
// opts, as cmd/deploy does.
func lowerZoo(t *testing.T, name string, opts graph.LowerOptions) *graph.Model {
	t.Helper()
	spec, err := zoo.Spec(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.FromSpec(spec, rand.New(rand.NewSource(0)), opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDeployMicroNetKWSS: the smallest KWS MicroNet deploys on the small
// MCU within 10% of the paper's Table 4 latency, with positive power and
// energy and a per-op breakdown.
func TestDeployMicroNetKWSS(t *testing.T) {
	dep := deploy(t, lowerZoo(t, "MicroNet-KWS-S", graph.LowerOptions{AppendSoftmax: true}), F446RE)
	if dep.FitsErr != nil {
		t.Fatalf("KWS-S must fit the small MCU: %v", dep.FitsErr)
	}
	e, err := zoo.Get("MicroNet-KWS-S")
	if err != nil {
		t.Fatal(err)
	}
	if paper := e.Paper.LatS; math.Abs(dep.LatencySeconds-paper)/paper > 0.10 {
		t.Fatalf("latency %.3f vs paper %.3f", dep.LatencySeconds, paper)
	}
	if dep.EnergyMJ <= 0 || dep.ActivePowerMW <= 0 {
		t.Fatal("energy/power must be positive")
	}
	if len(dep.Layers) == 0 {
		t.Fatal("per-layer breakdown missing")
	}
}

func TestDeployNotFitting(t *testing.T) {
	dep := deploy(t, lowerZoo(t, "MicroNet-KWS-L", graph.LowerOptions{}), F446RE)
	if dep.FitsErr == nil {
		t.Fatal("KWS-L must not fit the small MCU (Table 4)")
	}
}

// TestDeployJoinsFitAndUnsupportedErrors: a model that BOTH overflows the
// device SRAM and uses a transposed conv must report both problems — the
// unsupported-op check used to silently overwrite the FitsDevice error.
func TestDeployJoinsFitAndUnsupportedErrors(t *testing.T) {
	// 64x64x1 input into a 256-channel stride-1 conv: the activation
	// arena alone (64*64*256 = 1 MB) overflows every device class; the
	// trailing transposed conv is unsupported by the runtime.
	spec := &arch.Spec{
		Name: "overflow-tconv-test", Task: "ad", Source: "repro",
		InputH: 64, InputW: 64, InputC: 1, NumClasses: 0,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 256, Stride: 1},
			{Kind: arch.TransposedConv, KH: 3, KW: 3, OutC: 1, Stride: 2},
		},
	}
	m, err := graph.FromSpec(spec, rand.New(rand.NewSource(0)), graph.LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dep := deploy(t, m, F446RE)
	if dep.FitsErr == nil {
		t.Fatal("model must not be deployable")
	}
	msg := dep.FitsErr.Error()
	if !strings.Contains(msg, "does not fit") {
		t.Fatalf("FitsErr lost the SRAM overflow: %q", msg)
	}
	if !strings.Contains(msg, "unsupported by the runtime") {
		t.Fatalf("FitsErr lost the unsupported-op report: %q", msg)
	}
}

// TestFourBitDeploySmaller: 4-bit weights and activations shrink flash
// and the arena (Table 2) and cost latency (Figure 10).
func TestFourBitDeploySmaller(t *testing.T) {
	d8 := deploy(t, lowerZoo(t, "MicroNet-KWS-L", graph.LowerOptions{WeightBits: 8, ActBits: 8}), F746ZG)
	d4 := deploy(t, lowerZoo(t, "MicroNet-KWS-L", graph.LowerOptions{WeightBits: 4, ActBits: 4}), F746ZG)
	if d4.Report.ModelFlash() >= d8.Report.ModelFlash() {
		t.Fatal("4-bit weights must shrink flash (Table 2)")
	}
	if d4.Report.ArenaBytes >= d8.Report.ArenaBytes {
		t.Fatal("4-bit activations must shrink the arena (Table 2)")
	}
	if d4.LatencySeconds <= d8.LatencySeconds {
		t.Fatal("4-bit emulation must cost latency (Figure 10)")
	}
}
