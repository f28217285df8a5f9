// Package arch defines the architecture specification language shared by
// the whole reproduction: the trainer builds float models from a Spec, the
// graph package lowers a Spec to the deployable int8 IR, the DNAS emits a
// Spec as its search result, and the zoo catalogues the paper's Table 5 /
// Figure 6 models as Specs.
package arch

import (
	"fmt"
	"strings"

	"micronets/internal/tensor"
)

// BlockKind enumerates the macro blocks the paper's models are built from.
type BlockKind int

const (
	// Conv is a standard 2-D convolution followed by BN and ReLU.
	Conv BlockKind = iota
	// DSBlock is a depthwise-separable block: DW conv + BN + ReLU then
	// 1x1 conv + BN + ReLU (the DS-CNN building block, Table 5).
	DSBlock
	// IBN is a MobileNetV2 inverted bottleneck: 1x1 expand + BN + ReLU6,
	// 3x3 DW + BN + ReLU6, 1x1 linear project + BN, with a residual when
	// stride is 1 and the channel count is preserved (Figure 6).
	IBN
	// AvgPool is an average-pooling block (VALID padding).
	AvgPool
	// MaxPool is a max-pooling block (VALID padding).
	MaxPool
	// GlobalPool averages over all spatial positions.
	GlobalPool
	// Dense is a fully connected layer (input flattened if needed).
	Dense
	// DenseReLU is a fully connected layer followed by ReLU (autoencoder
	// hidden layers).
	DenseReLU
	// Dropout is a training-only regularizer; it is a no-op at deployment.
	Dropout
	// TransposedConv marks decoder layers of convolutional autoencoders.
	// TFLM does not support it (§6.4), so specs containing it are
	// reported as non-deployable by the runtime, exactly as in Table 3.
	TransposedConv
)

// blockKindNames maps each kind to its canonical name (the String form).
// Keep in sync with the BlockKind constants; ParseBlockKind and the JSON
// round-trip tests walk it.
var blockKindNames = map[BlockKind]string{
	Conv: "Conv2D", DSBlock: "DSBlock", IBN: "IBN",
	AvgPool: "AvgPool", MaxPool: "MaxPool", GlobalPool: "GlobalPool",
	Dense: "Dense", DenseReLU: "DenseReLU", Dropout: "Dropout",
	TransposedConv: "TransposedConv",
}

// ParseBlockKind is the inverse of BlockKind.String, used when loading
// exported spec files.
func ParseBlockKind(s string) (BlockKind, error) {
	for k, name := range blockKindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("arch: unknown block kind %q", s)
}

// MarshalText renders the kind by name so exported spec files (the NAS
// frontier export format) stay human-readable and stable across constant
// reordering.
func (k BlockKind) MarshalText() ([]byte, error) {
	if name, ok := blockKindNames[k]; ok {
		return []byte(name), nil
	}
	return nil, fmt.Errorf("arch: cannot marshal BlockKind(%d)", int(k))
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *BlockKind) UnmarshalText(b []byte) error {
	v, err := ParseBlockKind(string(b))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// String implements fmt.Stringer.
func (k BlockKind) String() string {
	if name, ok := blockKindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("BlockKind(%d)", int(k))
}

// Block is one macro block of a network.
type Block struct {
	Kind   BlockKind
	KH, KW int     // kernel size (Conv, DSBlock, IBN dw, pools, TransposedConv)
	Stride int     // spatial stride
	OutC   int     // output channels / dense units
	Expand int     // IBN: number of expansion filters (absolute, as in Fig. 6)
	Rate   float32 // Dropout rate
}

// Spec is a complete architecture: input geometry plus a block sequence.
type Spec struct {
	Name string
	// Task is one of "kws", "vww", "ad".
	Task                   string
	InputH, InputW, InputC int
	NumClasses             int
	Blocks                 []Block
	// Source records provenance: "repro" for models we construct and
	// train, "paper" for comparison points reconstructed from published
	// numbers.
	Source string
}

// Fingerprint renders the spec to a deterministic string covering every
// field that affects lowering — the identity caches and the serving
// repository key on, since a caller may rebuild a same-named spec with
// different blocks. %+v over the Blocks values is stable for these plain
// structs and far cheaper than the lowering it guards.
func (s *Spec) Fingerprint() string {
	return fmt.Sprintf("%s|%dx%dx%d|%d|%+v", s.Name, s.InputH, s.InputW, s.InputC, s.NumClasses, s.Blocks)
}

// LayerInfo describes one primitive layer after lowering a macro block,
// with resolved shapes and costs. Several LayerInfos may correspond to one
// Block (e.g. a DSBlock lowers to a depthwise and a pointwise layer).
// Analyze is the only code that decides what a block becomes: the graph
// package emits exactly one op per LayerInfo, Build makes one trainable
// unit per LayerInfo, and the DNAS supernet tabulates its costs from
// them.
type LayerInfo struct {
	// Name is the deployed op's name: "b<block>" plus "_dw"/"_pw" for a
	// DSBlock and "_exp"/"_dw"/"_proj"/"_add" for an IBN.
	Name string
	Kind string // "conv", "dwconv", "dense", "avgpool", "maxpool", "add", "tconv"
	// Act is the fused activation: "relu", "relu6" (IBN expand and
	// depthwise) or "linear" (no activation).
	Act              string
	BlockIdx         int
	KH, KW           int
	Stride           int
	InH, InW, InC    int
	OutH, OutW, OutC int
	Params           int64 // weight count (excluding bias)
	Biases           int64
	// MACs is multiply-accumulates; Ops = 2*MACs following the paper's
	// convention ("a single multiply-accumulate is defined as two
	// operations").
	MACs int64
}

// InBytes returns the int8 activation size of the layer input.
func (l LayerInfo) InBytes() int64 { return int64(l.InH) * int64(l.InW) * int64(l.InC) }

// OutBytes returns the int8 activation size of the layer output.
func (l LayerInfo) OutBytes() int64 { return int64(l.OutH) * int64(l.OutW) * int64(l.OutC) }

// Analysis summarizes a lowered Spec.
type Analysis struct {
	Layers []LayerInfo
	// TotalParams counts weights (excluding biases).
	TotalParams int64
	TotalBiases int64
	TotalMACs   int64
	// PeakWorkingSetBytes is the SpArSe working-memory model used by the
	// paper's SRAM regularizer: max over layers of (inputs + outputs) in
	// int8 bytes. The TFLM arena planner refines this with buffer reuse.
	PeakWorkingSetBytes int64
	Deployable          bool
	WhyNotDeployable    string
}

// TotalOps returns 2*TotalMACs.
func (a Analysis) TotalOps() int64 { return 2 * a.TotalMACs }

const (
	// maxDim bounds every size a spec declares: input dimensions and each
	// block's kernel, stride, expansion and output channels.
	maxDim = 1 << 16
	// maxTotal bounds a spec's total parameters, total MACs and peak
	// working set. Analyze computes them with products that saturate just
	// past it, so an oversized spec is refused instead of wrapping into a
	// small one.
	maxTotal = 1 << 40
)

// size multiplies layer dimensions, saturating at maxTotal+1: any product
// past maxTotal reads as just past it and can never wrap.
func size(dims ...int) int64 {
	p := int64(1)
	for _, d := range dims {
		if d != 0 && p > (maxTotal+1)/int64(d) {
			return maxTotal + 1
		}
		p *= int64(d)
	}
	return min(p, maxTotal+1)
}

// Analyze lowers the spec to primitive layers and computes shapes, parameter
// counts and MACs. It returns an error for malformed specs, and for specs
// whose sizes pass maxDim or whose parameters, MACs or peak working set
// pass maxTotal.
func (s *Spec) Analyze() (*Analysis, error) {
	if s.InputH <= 0 || s.InputW <= 0 || s.InputC <= 0 || s.InputH > maxDim || s.InputW > maxDim || s.InputC > maxDim {
		return nil, fmt.Errorf("arch: %s: bad input %dx%dx%d (each dimension must be in [1, %d])", s.Name, s.InputH, s.InputW, s.InputC, maxDim)
	}
	a := &Analysis{Deployable: true}
	h, w, c := s.InputH, s.InputW, s.InputC
	flat := false
	addLayer := func(l LayerInfo) {
		a.Layers = append(a.Layers, l)
		a.TotalParams += l.Params
		a.TotalBiases += l.Biases
		a.TotalMACs += l.MACs
		ws := l.InBytes() + l.OutBytes()
		if ws > a.PeakWorkingSetBytes {
			a.PeakWorkingSetBytes = ws
		}
	}
	for i, b := range s.Blocks {
		if err := b.checkSizes(); err != nil {
			return nil, fmt.Errorf("arch: %s block %d: %w", s.Name, i, err)
		}
		stride := b.Stride
		if stride == 0 {
			stride = 1
		}
		name := fmt.Sprintf("b%d", i)
		switch b.Kind {
		case Conv:
			if flat {
				return nil, fmt.Errorf("arch: %s block %d: conv after flatten", s.Name, i)
			}
			oh, ow := tensor.SameOut(h, stride), tensor.SameOut(w, stride)
			addLayer(LayerInfo{
				Name: name, Kind: "conv", Act: "relu", BlockIdx: i,
				KH: b.KH, KW: b.KW, Stride: stride,
				InH: h, InW: w, InC: c, OutH: oh, OutW: ow, OutC: b.OutC,
				Params: size(b.KH, b.KW, c, b.OutC),
				Biases: int64(b.OutC),
				MACs:   size(oh, ow, b.OutC, b.KH, b.KW, c),
			})
			h, w, c = oh, ow, b.OutC
		case DSBlock:
			if flat {
				return nil, fmt.Errorf("arch: %s block %d: dsblock after flatten", s.Name, i)
			}
			oh, ow := tensor.SameOut(h, stride), tensor.SameOut(w, stride)
			addLayer(LayerInfo{
				Name: name + "_dw", Kind: "dwconv", Act: "relu", BlockIdx: i,
				KH: b.KH, KW: b.KW, Stride: stride,
				InH: h, InW: w, InC: c, OutH: oh, OutW: ow, OutC: c,
				Params: size(b.KH, b.KW, c),
				Biases: int64(c),
				MACs:   size(oh, ow, c, b.KH, b.KW),
			})
			addLayer(LayerInfo{
				Name: name + "_pw", Kind: "conv", Act: "relu", BlockIdx: i,
				KH: 1, KW: 1, Stride: 1,
				InH: oh, InW: ow, InC: c, OutH: oh, OutW: ow, OutC: b.OutC,
				Params: size(c, b.OutC),
				Biases: int64(b.OutC),
				MACs:   size(oh, ow, b.OutC, c),
			})
			h, w, c = oh, ow, b.OutC
		case IBN:
			if flat {
				return nil, fmt.Errorf("arch: %s block %d: ibn after flatten", s.Name, i)
			}
			e := b.Expand
			if e <= 0 {
				return nil, fmt.Errorf("arch: %s block %d: IBN needs Expand>0", s.Name, i)
			}
			// 1x1 expand.
			addLayer(LayerInfo{
				Name: name + "_exp", Kind: "conv", Act: "relu6", BlockIdx: i,
				KH: 1, KW: 1, Stride: 1,
				InH: h, InW: w, InC: c, OutH: h, OutW: w, OutC: e,
				Params: size(c, e), Biases: int64(e),
				MACs: size(h, w, e, c),
			})
			// DW.
			kh, kw := b.KH, b.KW
			if kh == 0 {
				kh, kw = 3, 3
			}
			oh, ow := tensor.SameOut(h, stride), tensor.SameOut(w, stride)
			addLayer(LayerInfo{
				Name: name + "_dw", Kind: "dwconv", Act: "relu6", BlockIdx: i,
				KH: kh, KW: kw, Stride: stride,
				InH: h, InW: w, InC: e, OutH: oh, OutW: ow, OutC: e,
				Params: size(kh, kw, e), Biases: int64(e),
				MACs: size(oh, ow, e, kh, kw),
			})
			// 1x1 project.
			addLayer(LayerInfo{
				Name: name + "_proj", Kind: "conv", Act: "linear", BlockIdx: i,
				KH: 1, KW: 1, Stride: 1,
				InH: oh, InW: ow, InC: e, OutH: oh, OutW: ow, OutC: b.OutC,
				Params: size(e, b.OutC), Biases: int64(b.OutC),
				MACs: size(oh, ow, b.OutC, e),
			})
			if stride == 1 && b.OutC == c {
				addLayer(LayerInfo{
					Name: name + "_add", Kind: "add", Act: "linear", BlockIdx: i,
					InH: oh, InW: ow, InC: b.OutC, OutH: oh, OutW: ow, OutC: b.OutC,
				})
			}
			h, w, c = oh, ow, b.OutC
		case AvgPool, MaxPool:
			if flat {
				return nil, fmt.Errorf("arch: %s block %d: pool after flatten", s.Name, i)
			}
			kind := "avgpool"
			if b.Kind == MaxPool {
				kind = "maxpool"
			}
			oh, ow := tensor.ValidOut(h, b.KH, stride), tensor.ValidOut(w, b.KW, stride)
			addLayer(LayerInfo{
				Name: name, Kind: kind, Act: "linear", BlockIdx: i,
				KH: b.KH, KW: b.KW, Stride: stride,
				InH: h, InW: w, InC: c, OutH: oh, OutW: ow, OutC: c,
			})
			h, w = oh, ow
		case GlobalPool:
			if flat {
				return nil, fmt.Errorf("arch: %s block %d: pool after flatten", s.Name, i)
			}
			addLayer(LayerInfo{
				Name: name, Kind: "avgpool", Act: "linear", BlockIdx: i,
				KH: h, KW: w, Stride: 1,
				InH: h, InW: w, InC: c, OutH: 1, OutW: 1, OutC: c,
			})
			h, w = 1, 1
		case Dense, DenseReLU:
			in := h * w * c
			flat = true
			act := "linear"
			if b.Kind == DenseReLU {
				act = "relu"
			}
			addLayer(LayerInfo{
				Name: name, Kind: "dense", Act: act, BlockIdx: i,
				InH: 1, InW: 1, InC: in, OutH: 1, OutW: 1, OutC: b.OutC,
				Params: size(in, b.OutC), Biases: int64(b.OutC),
				MACs: size(in, b.OutC),
			})
			h, w, c = 1, 1, b.OutC
		case Dropout:
			// Training-only; nothing at deployment.
		case TransposedConv:
			if flat {
				return nil, fmt.Errorf("arch: %s block %d: tconv after flatten", s.Name, i)
			}
			oh, ow := h*stride, w*stride
			if oh > maxDim || ow > maxDim {
				return nil, fmt.Errorf("arch: %s block %d: tconv output %dx%d passes %d", s.Name, i, oh, ow, maxDim)
			}
			addLayer(LayerInfo{
				Name: name, Kind: "tconv", Act: "linear", BlockIdx: i,
				KH: b.KH, KW: b.KW, Stride: stride,
				InH: h, InW: w, InC: c, OutH: oh, OutW: ow, OutC: b.OutC,
				Params: size(b.KH, b.KW, c, b.OutC),
				Biases: int64(b.OutC),
				MACs:   size(oh, ow, b.OutC, b.KH, b.KW, c),
			})
			a.Deployable = false
			a.WhyNotDeployable = "transposed convolution is not supported by TFLM (§6.4)"
			h, w, c = oh, ow, b.OutC
		default:
			return nil, fmt.Errorf("arch: %s block %d: unknown kind %v", s.Name, i, b.Kind)
		}
		// Checked per block: a block adds at most four layers of at most
		// maxTotal+1 each, so no total can overflow before this check.
		if a.TotalParams > maxTotal || a.TotalMACs > maxTotal || a.PeakWorkingSetBytes > maxTotal {
			return nil, fmt.Errorf("arch: %s block %d: parameters, MACs or peak working set pass %d", s.Name, i, int64(maxTotal))
		}
	}
	if len(a.Layers) == 0 {
		return nil, fmt.Errorf("arch: %s: no layers", s.Name)
	}
	return a, nil
}

// checkSizes rejects the sizes the lowering cannot build: a non-positive
// kernel or pool window on the kinds that have one (an IBN's zero KH keeps
// meaning 3×3), non-positive output channels, a negative stride (zero
// means 1), and any size above maxDim.
func (b Block) checkSizes() error {
	var kernel, channels bool
	switch b.Kind {
	case Conv, DSBlock, TransposedConv:
		kernel, channels = true, true
	case IBN:
		kernel, channels = b.KH != 0, true
	case AvgPool, MaxPool:
		kernel = true
	case Dense, DenseReLU:
		channels = true
	}
	switch {
	case b.Stride < 0:
		return fmt.Errorf("%v stride %d is negative", b.Kind, b.Stride)
	case kernel && (b.KH <= 0 || b.KW <= 0):
		return fmt.Errorf("%v kernel %dx%d is not positive", b.Kind, b.KH, b.KW)
	case channels && b.OutC <= 0:
		return fmt.Errorf("%v OutC %d is not positive", b.Kind, b.OutC)
	case max(b.KH, b.KW, b.OutC, b.Stride, b.Expand) > maxDim:
		return fmt.Errorf("%v sizes (kernel %dx%d, OutC %d, stride %d, expand %d) pass %d",
			b.Kind, b.KH, b.KW, b.OutC, b.Stride, b.Expand, maxDim)
	}
	return nil
}

// String renders the spec in the style of the paper's Table 5.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%dx%dx%d]: ", s.Name, s.InputH, s.InputW, s.InputC)
	for i, blk := range s.Blocks {
		if i > 0 {
			b.WriteString("-")
		}
		switch blk.Kind {
		case Conv:
			fmt.Fprintf(&b, "Conv2D(h:%d,w:%d,c:%d,s:%d)", blk.KH, blk.KW, blk.OutC, max1(blk.Stride))
		case DSBlock:
			fmt.Fprintf(&b, "DSBlock(h:%d,w:%d,c:%d,s:%d)", blk.KH, blk.KW, blk.OutC, max1(blk.Stride))
		case IBN:
			fmt.Fprintf(&b, "IBN(%d,%d,s:%d)", blk.Expand, blk.OutC, max1(blk.Stride))
		case AvgPool:
			fmt.Fprintf(&b, "AvgPool(h:%d,w:%d)", blk.KH, blk.KW)
		case MaxPool:
			fmt.Fprintf(&b, "MaxPool(h:%d,w:%d)", blk.KH, blk.KW)
		case GlobalPool:
			b.WriteString("GlobalPool")
		case Dense:
			fmt.Fprintf(&b, "FC(c:%d)", blk.OutC)
		case DenseReLU:
			fmt.Fprintf(&b, "FC+ReLU(c:%d)", blk.OutC)
		case Dropout:
			fmt.Fprintf(&b, "Dropout(%.2f)", blk.Rate)
		case TransposedConv:
			fmt.Fprintf(&b, "TConv(h:%d,w:%d,c:%d,s:%d)", blk.KH, blk.KW, blk.OutC, max1(blk.Stride))
		}
	}
	return b.String()
}

func max1(s int) int {
	if s == 0 {
		return 1
	}
	return s
}
