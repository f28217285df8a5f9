// Package graph defines the deployable model IR — the reproduction's
// analogue of a .tflite flatbuffer. A Model is a flat list of int8 (or
// int4) quantized ops over statically shaped tensors, produced either
// structurally from an arch.Spec (for hardware characterization) or by
// exporting a trained nn model (folding BatchNorm and quantizing weights).
// The tflm package interprets it; the mcu package costs it.
package graph

import (
	"fmt"
)

// OpKind enumerates the runtime's operator set, mirroring the subset of
// TFLM kernels the paper's models use.
type OpKind int

const (
	// OpConv2D is a standard convolution with fused per-channel
	// requantization and optional fused ReLU clamp.
	OpConv2D OpKind = iota
	// OpDWConv2D is a depthwise convolution (multiplier 1).
	OpDWConv2D
	// OpDense is a fully connected layer.
	OpDense
	// OpAvgPool is average pooling.
	OpAvgPool
	// OpMaxPool is max pooling.
	OpMaxPool
	// OpAdd is an elementwise residual add with input rescaling.
	OpAdd
	// OpSoftmax produces the final class distribution.
	OpSoftmax
	// OpTransposedConv is recognized by the IR but NOT implemented by the
	// runtime, reproducing TFLM's lack of support (§6.4): models containing
	// it fail deployment.
	OpTransposedConv
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpConv2D:
		return "CONV_2D"
	case OpDWConv2D:
		return "DEPTHWISE_CONV_2D"
	case OpDense:
		return "FULLY_CONNECTED"
	case OpAvgPool:
		return "AVERAGE_POOL_2D"
	case OpMaxPool:
		return "MAX_POOL_2D"
	case OpAdd:
		return "ADD"
	case OpSoftmax:
		return "SOFTMAX"
	case OpTransposedConv:
		return "TRANSPOSE_CONV"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Tensor describes one activation tensor (batch dimension is implicitly 1
// at deployment). Quantization is affine: real = scale * (q - zeroPoint).
type Tensor struct {
	ID        int
	Name      string
	H, W, C   int
	Scale     float32
	ZeroPoint int32
	// Bits is 8 for standard models, 4 for the sub-byte activation study.
	// 4-bit activations are stored unpacked (one per byte) but constrained
	// to 16 levels, matching the paper's emulated kernels.
	Bits int
}

// Elems returns the number of elements.
func (t *Tensor) Elems() int { return t.H * t.W * t.C }

// Bytes returns the buffer size in bytes as allocated in the SRAM arena.
// Emulated 4-bit activations are packed two-per-byte in memory.
func (t *Tensor) Bytes() int {
	if t.Bits == 4 {
		return (t.Elems() + 1) / 2
	}
	return t.Elems()
}

// Op is one operator instance.
type Op struct {
	Kind OpKind
	Name string
	// Input and Output are tensor IDs. Add has two inputs.
	Inputs []int
	Output int

	// Convolution / pooling geometry.
	KH, KW, SH, SW                       int
	PadTop, PadLeft, PadBottom, PadRight int

	// Weights are stored per output channel groups, one per int8; 4-bit
	// weights hold values in [-8, 7], which Save packs two per byte and
	// WeightBytes counts packed.
	Weights    []int8
	WeightBits int
	// WeightScales holds per-output-channel scales (symmetric, zp=0).
	WeightScales []float32
	Bias         []int32

	// Fused activation clamp in output quantized units.
	ClampMin, ClampMax int32
}

// MACs returns multiply-accumulates for the op given its tensors.
func (o *Op) MACs(m *Model) int64 {
	out := m.Tensors[o.Output]
	switch o.Kind {
	case OpConv2D, OpTransposedConv:
		in := m.Tensors[o.Inputs[0]]
		return int64(out.H) * int64(out.W) * int64(out.C) * int64(o.KH) * int64(o.KW) * int64(in.C)
	case OpDWConv2D:
		return int64(out.H) * int64(out.W) * int64(out.C) * int64(o.KH) * int64(o.KW)
	case OpDense:
		in := m.Tensors[o.Inputs[0]]
		return int64(in.Elems()) * int64(out.C)
	default:
		return 0
	}
}

// Ops returns the paper-convention op count (2 per MAC).
func (o *Op) Ops(m *Model) int64 { return 2 * o.MACs(m) }

// WeightBytes returns the flash bytes used by weights (int4 packed).
func (o *Op) WeightBytes() int {
	if o.WeightBits == 4 {
		return (len(o.Weights) + 1) / 2
	}
	return len(o.Weights)
}

// Model is a full deployable network.
type Model struct {
	Name    string
	Tensors []*Tensor
	Ops     []*Op
	Input   int
	Output  int
}

// TotalMACs sums all op MACs.
func (m *Model) TotalMACs() int64 {
	var s int64
	for _, o := range m.Ops {
		s += o.MACs(m)
	}
	return s
}

// TotalOps returns 2*TotalMACs.
func (m *Model) TotalOps() int64 { return 2 * m.TotalMACs() }

// WeightBytes returns total flash bytes of weights (packed).
func (m *Model) WeightBytes() int {
	s := 0
	for _, o := range m.Ops {
		s += o.WeightBytes()
	}
	return s
}

// BiasBytes returns total flash bytes of int32 biases.
func (m *Model) BiasBytes() int {
	s := 0
	for _, o := range m.Ops {
		s += 4 * len(o.Bias)
	}
	return s
}

// QuantParamBytes returns the flash bytes used by quantization metadata:
// TFLite stores per-channel scales (float32) and zero points (int64) as
// parallel flatbuffer vectors with framing, ~16 bytes per channel, plus
// per-tensor records. (The paper's Figure 2 shows this region plus the
// graph at 112 KB for a 500 KB KWS model.)
func (m *Model) QuantParamBytes() int {
	s := 0
	for _, o := range m.Ops {
		s += 16 * len(o.WeightScales)
	}
	s += 32 * len(m.Tensors)
	return s
}

// GraphDefBytes estimates the flash bytes of the graph definition itself
// (op records, tensor records, shape metadata) — the serializer's framing.
func (m *Model) GraphDefBytes() int {
	return 64 + 48*len(m.Ops) + 32*len(m.Tensors)
}

// FlashBytes returns the model's total flash footprint, the analogue of
// the .tflite file size reported as "Flash" in Table 4.
func (m *Model) FlashBytes() int {
	return m.WeightBytes() + m.BiasBytes() + m.QuantParamBytes() + m.GraphDefBytes()
}

// Validate checks structural invariants: tensor IDs in range, shapes
// consistent with op geometry, weight lengths correct, and every tensor
// and weighted op at a bit width the kernels run (8 or 4).
func (m *Model) Validate() error {
	if len(m.Ops) == 0 {
		return fmt.Errorf("graph: %s: empty model", m.Name)
	}
	for i, t := range m.Tensors {
		if t.ID != i {
			return fmt.Errorf("graph: %s: tensor %d has ID %d", m.Name, i, t.ID)
		}
		if t.H <= 0 || t.W <= 0 || t.C <= 0 {
			return fmt.Errorf("graph: %s: tensor %q bad shape %dx%dx%d", m.Name, t.Name, t.H, t.W, t.C)
		}
		if t.Bits != 8 && t.Bits != 4 {
			return fmt.Errorf("graph: %s: tensor %q bad bits %d", m.Name, t.Name, t.Bits)
		}
	}
	for _, o := range m.Ops {
		for _, in := range o.Inputs {
			if in < 0 || in >= len(m.Tensors) {
				return fmt.Errorf("graph: %s: op %q input %d out of range", m.Name, o.Name, in)
			}
		}
		if o.Output < 0 || o.Output >= len(m.Tensors) {
			return fmt.Errorf("graph: %s: op %q output %d out of range", m.Name, o.Name, o.Output)
		}
		if len(o.Weights) > 0 && o.WeightBits != 8 && o.WeightBits != 4 {
			return fmt.Errorf("graph: %s: op %q bad weight bits %d", m.Name, o.Name, o.WeightBits)
		}
		out := m.Tensors[o.Output]
		switch o.Kind {
		case OpConv2D:
			in := m.Tensors[o.Inputs[0]]
			want := o.KH * o.KW * in.C * out.C
			if len(o.Weights) != want {
				return fmt.Errorf("graph: %s: op %q has %d weights, want %d", m.Name, o.Name, len(o.Weights), want)
			}
			if len(o.WeightScales) != out.C || len(o.Bias) != out.C {
				return fmt.Errorf("graph: %s: op %q per-channel params mismatch", m.Name, o.Name)
			}
		case OpDWConv2D:
			if len(o.Weights) != o.KH*o.KW*out.C {
				return fmt.Errorf("graph: %s: op %q has %d dw weights, want %d", m.Name, o.Name, len(o.Weights), o.KH*o.KW*out.C)
			}
		case OpDense:
			in := m.Tensors[o.Inputs[0]]
			if len(o.Weights) != in.Elems()*out.C {
				return fmt.Errorf("graph: %s: op %q has %d fc weights, want %d", m.Name, o.Name, len(o.Weights), in.Elems()*out.C)
			}
		case OpAdd:
			if len(o.Inputs) != 2 {
				return fmt.Errorf("graph: %s: op %q add needs 2 inputs", m.Name, o.Name)
			}
		}
	}
	return nil
}
