package arch

import (
	"fmt"
	"math/rand"

	"micronets/internal/nn"
)

// Build constructs a trainable float model from the rows of s.Analyze(),
// so the network it trains is the graph the lowering deploys. The model
// has one entry per block: a conv, dwconv or dense row adds its weighted
// unit, a pool row a VALID pool, and an add row makes the block an
// nn.Residual. A Dropout block has no row and is its own entry; the
// model's dropouts share one stream, seeded from rng at the first Dropout
// block, so a spec without dropout draws from rng exactly as its weighted
// layers need. qat turns on 8-bit quantization-aware training in every
// weighted layer.
func Build(rng *rand.Rand, s *Spec, qat bool) (*nn.Sequential, error) {
	a, err := s.Analyze()
	if err != nil {
		return nil, err
	}
	model := nn.NewSequential()
	var dropRng *rand.Rand
	rows := a.Layers
	for i, b := range s.Blocks {
		if b.Kind == Dropout {
			if dropRng == nil {
				dropRng = rand.New(rand.NewSource(rng.Int63()))
			}
			model.Add(&nn.Dropout{Rate: b.Rate, Rng: dropRng})
			continue
		}
		body := nn.NewSequential()
		var block nn.Layer = body
		for ; len(rows) > 0 && rows[0].BlockIdx == i; rows = rows[1:] {
			switch l := rows[0]; l.Kind {
			case "conv", "dwconv", "dense":
				body.Layers = append(body.Layers, weighted(rng, l, qat)...)
			case "avgpool":
				body.Add(&nn.AvgPool{KH: l.KH, KW: l.KW, Stride: l.Stride})
			case "maxpool":
				body.Add(&nn.MaxPoolLayer{KH: l.KH, KW: l.KW, Stride: l.Stride})
			case "add":
				block = &nn.Residual{Body: body}
			default:
				return nil, fmt.Errorf("arch: %s layer %s: training %s layers is not supported by the Go trainer", s.Name, l.Name, l.Kind)
			}
		}
		model.Add(block)
	}
	return model, nil
}

// weighted returns a conv, dwconv or dense row's trainable unit: the
// He- or Glorot-initialized layer, a BatchNorm unless the row is dense,
// and the row's activation unless it is linear.
func weighted(rng *rand.Rand, l LayerInfo, qat bool) []nn.Layer {
	var quant *nn.LayerQuant
	if qat {
		quant = &nn.LayerQuant{}
	}
	var unit []nn.Layer
	switch l.Kind {
	case "conv":
		c := nn.NewConv2D(rng, l.Name, l.KH, l.KW, l.InC, l.OutC, l.Stride)
		c.Quant = quant
		unit = append(unit, c, nn.NewBatchNorm(l.Name+".bn", l.OutC))
	case "dwconv":
		d := nn.NewDepthwiseConv2D(rng, l.Name, l.KH, l.KW, l.InC, l.Stride)
		d.Quant = quant
		unit = append(unit, d, nn.NewBatchNorm(l.Name+".bn", l.OutC))
	case "dense":
		d := nn.NewDense(rng, l.Name, l.InC, l.OutC)
		d.Quant = quant
		unit = append(unit, d)
	}
	if l.Act != "linear" {
		unit = append(unit, &nn.Activation{Kind: l.Act})
	}
	return unit
}
