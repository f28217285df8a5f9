package mcu

import (
	"errors"

	"micronets/internal/graph"
	"micronets/internal/tflm"
)

// Deployment is one lowered model measured on one device: the SRAM,
// flash, latency and energy the paper scores every model by (§3, Table
// 4), and whether it deploys at all.
type Deployment struct {
	Model  *graph.Model
	Device *Device
	Report *tflm.MemoryReport // planned SRAM and flash (Figure 2)

	LatencySeconds float64        // modeled end-to-end inference latency
	ActivePowerMW  float64        // board draw while inferring
	EnergyMJ       float64        // per inference: power × latency (§3.4)
	Layers         []LayerLatency // per-op latency breakdown
	// FitsErr joins every reason the model does not deploy on the device:
	// an SRAM or flash overflow, an operator the runtime cannot run.
	FitsErr error
}

// Deploy plans m's memory, runs the latency model once and reads the
// board's power, then checks the result against dev. It is the one
// measurement of a model on a device. A model that does not fit still
// returns a Deployment with FitsErr set, so callers can report "not
// deployable" rows as the paper's tables do; a model the planner or the
// latency model cannot score is an error.
func Deploy(m *graph.Model, dev *Device) (*Deployment, error) {
	report, err := tflm.Report(m, nil)
	if err != nil {
		return nil, err
	}
	lat, layers, err := ModelLatency(m, dev)
	if err != nil {
		return nil, err
	}
	power := ActivePowerMW(m, dev)
	return &Deployment{
		Model: m, Device: dev, Report: report,
		LatencySeconds: lat,
		ActivePowerMW:  power,
		EnergyMJ:       power * lat, // mW * s = mJ
		Layers:         layers,
		FitsErr: errors.Join(report.FitsDevice(dev.SRAMBytes(), dev.FlashBytes()),
			tflm.Unsupported(m)),
	}, nil
}
