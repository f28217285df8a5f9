// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction's own substrates: the random-model
// characterization studies (Figures 3-5, 9), the memory map (Figure 2),
// the Pareto comparisons (Figures 7, 8, 11), the sub-byte study (Figure
// 10, Table 2), and the results tables (Tables 1-5). Experiments lists
// them by id, and `cmd/bench -exp <id>` prints each.
package experiments

import (
	"math"
	"math/rand"
	"sort"

	"micronets/internal/core"
	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/zoo"
)

// XY is one scatter point.
type XY struct {
	X, Y float64
}

// LinearFit returns the least-squares line y = slope*x + intercept and the
// coefficient of determination r².
func LinearFit(pts []XY) (slope, intercept, r2 float64) {
	n := float64(len(pts))
	if n < 2 {
		return 0, 0, 0
	}
	var sx, sy, sxx, sxy, syy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
		sxx += p.X * p.X
		sxy += p.X * p.Y
		syy += p.Y * p.Y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	// r² = 1 - SSres/SStot
	meanY := sy / n
	var ssRes, ssTot float64
	for _, p := range pts {
		pred := slope*p.X + intercept
		ssRes += (p.Y - pred) * (p.Y - pred)
		ssTot += (p.Y - meanY) * (p.Y - meanY)
	}
	if ssTot == 0 {
		return slope, intercept, 1
	}
	return slope, intercept, 1 - ssRes/ssTot
}

// ---------------------------------------------------------------------------
// Figure 3: layer-wise latency vs ops.

// LayerPoint is one single-layer measurement.
type LayerPoint struct {
	Kind      string
	Ops       int64
	LatencyMS float64
}

// Figure3 characterizes random individual layers on the STM32F767ZI, as in
// the paper: conv2d and fully connected layers exhibit lower latency per
// op than depthwise convolutions, with spread from IM2COL overheads and
// the ÷4 channel alignment effect.
func Figure3(perKind int, seed int64) ([]LayerPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []LayerPoint
	for _, kind := range []string{"conv", "dwconv", "fc"} {
		for i := 0; i < perKind; i++ {
			layer := core.RandomSingleLayer(rng, kind, i)
			m, err := graph.FromSpec(layer.Spec, rng, graph.LowerOptions{})
			if err != nil {
				return nil, err
			}
			_, lats, err := mcu.ModelLatency(m, mcu.F767ZI)
			if err != nil {
				return nil, err
			}
			for oi, op := range m.Ops {
				var k string
				switch op.Kind {
				case graph.OpConv2D:
					k = "conv"
				case graph.OpDWConv2D:
					k = "dwconv"
				case graph.OpDense:
					k = "fc"
				default:
					continue
				}
				// For the dwconv spec (lowered as a DS block) keep only
				// the depthwise op itself as the datapoint.
				if kind == "dwconv" && k != "dwconv" {
					continue
				}
				out = append(out, LayerPoint{
					Kind: k, Ops: op.Ops(m), LatencyMS: lats[oi].Seconds * 1000,
				})
			}
		}
	}
	return out, nil
}

// ThroughputSpread summarizes ops/s percentiles per layer kind, the
// quantitative form of Figure 3's visual spread.
func ThroughputSpread(points []LayerPoint) map[string][3]float64 {
	byKind := map[string][]float64{}
	for _, p := range points {
		if p.LatencyMS <= 0 {
			continue
		}
		byKind[p.Kind] = append(byKind[p.Kind], float64(p.Ops)/(p.LatencyMS/1000)/1e6)
	}
	out := map[string][3]float64{}
	for k, v := range byKind {
		sort.Float64s(v)
		out[k] = [3]float64{
			v[len(v)/10],   // p10
			v[len(v)/2],    // median
			v[len(v)*9/10], // p90
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 4: whole-model latency is linear in ops.

// Fig4Series is one (backbone, device) scatter with its fit.
type Fig4Series struct {
	Backbone string
	Device   string
	Points   []XY // x: Mops, y: latency seconds
	Slope    float64
	R2       float64
	// ThroughputMops is 1/slope: the emergent whole-model ops/s.
	ThroughputMops float64
}

// Figure4 samples random models from the KWS and image-classification
// backbones and measures them on the small and medium MCUs. The paper's
// claim, which the test suite asserts, is 0.95 < r² < 0.99 per series, a
// ~40% higher slope for the KWS backbone, and ~2x between the MCUs.
func Figure4(perBackbone int, seed int64) ([]Fig4Series, error) {
	rng := rand.New(rand.NewSource(seed))
	devices := []*mcu.Device{mcu.F446RE, mcu.F746ZG}
	var series []Fig4Series
	for _, backbone := range []string{"kws", "image"} {
		models := make([]*graph.Model, 0, perBackbone)
		for i := 0; i < perBackbone; i++ {
			var err error
			var m *graph.Model
			if backbone == "kws" {
				m, err = graph.FromSpec(core.RandomKWSModel(rng, i), rng, graph.LowerOptions{})
			} else {
				m, err = graph.FromSpec(core.RandomImageModel(rng, i), rng, graph.LowerOptions{})
			}
			if err != nil {
				return nil, err
			}
			models = append(models, m)
		}
		for _, dev := range devices {
			s := Fig4Series{Backbone: backbone, Device: dev.Name}
			for _, m := range models {
				lat, _, err := mcu.ModelLatency(m, dev)
				if err != nil {
					return nil, err
				}
				s.Points = append(s.Points, XY{X: float64(m.TotalOps()) / 1e6, Y: lat})
			}
			s.Slope, _, s.R2 = LinearFit(s.Points)
			if s.Slope > 0 {
				s.ThroughputMops = 1 / s.Slope
			}
			series = append(series, s)
		}
	}
	return series, nil
}

// ---------------------------------------------------------------------------
// Figure 5: power is constant; energy is linear in ops.

// Fig5Series is the per-device result with the power-constancy statistic.
type Fig5Series struct {
	Device        string
	PowerSigmaMu  float64 // σ/µ of power across models (paper: 0.00731)
	EnergyR2      float64 // r² of energy vs ops
	EnergySlopeMJ float64 // mJ per Mop
}

// Figure5 measures power and energy for random image-backbone models on
// both MCUs (the paper used 400 models from the CIFAR10 backbone).
func Figure5(nModels int, seed int64) ([]Fig5Series, error) {
	rng := rand.New(rand.NewSource(seed))
	models := make([]*graph.Model, 0, nModels)
	for i := 0; i < nModels; i++ {
		m, err := graph.FromSpec(core.RandomImageModel(rng, i), rng, graph.LowerOptions{})
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	var out []Fig5Series
	for _, dev := range []*mcu.Device{mcu.F446RE, mcu.F746ZG} {
		s := Fig5Series{Device: dev.Name}
		var sum, sumSq float64
		var exy []XY
		for _, m := range models {
			d, err := mcu.Deploy(m, dev)
			if err != nil {
				return nil, err
			}
			p := d.ActivePowerMW
			sum += p
			sumSq += p * p
			exy = append(exy, XY{X: float64(m.TotalOps()) / 1e6, Y: d.EnergyMJ})
		}
		n := float64(len(models))
		mean := sum / n
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		s.PowerSigmaMu = math.Sqrt(variance) / mean
		s.EnergySlopeMJ, _, s.EnergyR2 = LinearFit(exy)
		out = append(out, s)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 10 / Table 2: sub-byte kernel overhead.

// Fig10Row is the latency increase of 4-bit variants over 8-bit for one
// model.
type Fig10Row struct {
	Model              string
	Lat8w8a            float64
	Lat4a8wIncreasePct float64
	Lat4a4wIncreasePct float64
}

// Figure10 measures MicroNet-KWS-M and -L with 4-bit activations and
// weights on the medium MCU. Paper: +19.28% (M) and +28.8% (L) for
// 4-bit/4-bit.
func Figure10(seed int64) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, name := range []string{"MicroNet-KWS-M", "MicroNet-KWS-L"} {
		spec, err := zoo.Spec(name)
		if err != nil {
			return nil, err
		}
		var lat [3]float64
		for i, bits := range [][2]int{{8, 8}, {8, 4}, {4, 4}} {
			m, err := graph.FromSpec(spec, rand.New(rand.NewSource(seed)), graph.LowerOptions{WeightBits: bits[0], ActBits: bits[1]})
			if err != nil {
				return nil, err
			}
			if lat[i], _, err = mcu.ModelLatency(m, mcu.F746ZG); err != nil {
				return nil, err
			}
		}
		rows = append(rows, Fig10Row{
			Model:              name,
			Lat8w8a:            lat[0],
			Lat4a8wIncreasePct: (lat[1]/lat[0] - 1) * 100,
			Lat4a4wIncreasePct: (lat[2]/lat[0] - 1) * 100,
		})
	}
	return rows, nil
}
