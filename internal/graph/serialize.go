package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
)

// Serialization implements the ".mnet" container — the reproduction's
// analogue of the .tflite flatbuffer. The on-disk size of this container is
// what the memory reports treat as the model's flash footprint.

const (
	magic   = "MNET"
	version = uint32(2)
)

// Save writes the model to w.
func Save(w io.Writer, m *Model) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := writeAll(bw,
		version,
		uint32(len(m.Name)),
	); err != nil {
		return err
	}
	if _, err := bw.WriteString(m.Name); err != nil {
		return err
	}
	if err := writeAll(bw, uint32(m.Input), uint32(m.Output), uint32(len(m.Tensors)), uint32(len(m.Ops))); err != nil {
		return err
	}
	for _, t := range m.Tensors {
		if err := writeString(bw, t.Name); err != nil {
			return err
		}
		if err := writeAll(bw, uint32(t.H), uint32(t.W), uint32(t.C), t.Scale, t.ZeroPoint, uint8(t.Bits)); err != nil {
			return err
		}
	}
	for _, o := range m.Ops {
		if err := writeAll(bw, uint8(o.Kind)); err != nil {
			return err
		}
		if err := writeString(bw, o.Name); err != nil {
			return err
		}
		if err := writeAll(bw, uint8(len(o.Inputs))); err != nil {
			return err
		}
		for _, in := range o.Inputs {
			if err := writeAll(bw, uint32(in)); err != nil {
				return err
			}
		}
		if err := writeAll(bw,
			uint32(o.Output),
			uint16(o.KH), uint16(o.KW), uint16(o.SH), uint16(o.SW),
			uint16(o.PadTop), uint16(o.PadLeft), uint16(o.PadBottom), uint16(o.PadRight),
			uint8(o.WeightBits),
		); err != nil {
			return err
		}
		// Weights are stored packed for int4.
		packed := o.Weights
		if o.WeightBits == 4 {
			packed = bytesToInt8(PackInt4(o.Weights))
		}
		if err := writeAll(bw, uint32(len(o.Weights)), uint32(len(packed))); err != nil {
			return err
		}
		if err := writeAll(bw, packed); err != nil {
			return err
		}
		if err := writeAll(bw, uint32(len(o.WeightScales)), o.WeightScales); err != nil {
			return err
		}
		if err := writeAll(bw, uint32(len(o.Bias)), o.Bias); err != nil {
			return err
		}
		if err := writeAll(bw, o.ClampMin, o.ClampMax); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SerializedSize returns the exact byte size Save would produce.
func SerializedSize(m *Model) int {
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		return -1
	}
	return buf.Len()
}

// PackInt4 packs int4 values (each in [-8,7]) two per byte, low nibble
// first — the layout the paper's optimized sub-byte kernels use.
func PackInt4(vals []int8) []byte {
	out := make([]byte, (len(vals)+1)/2)
	for i, v := range vals {
		nib := byte(v & 0x0f)
		if i%2 == 0 {
			out[i/2] = nib
		} else {
			out[i/2] |= nib << 4
		}
	}
	return out
}

func bytesToInt8(b []byte) []int8 {
	out := make([]int8, len(b))
	for i, v := range b {
		out[i] = int8(v)
	}
	return out
}

func writeString(w io.Writer, s string) error {
	if err := writeAll(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func writeAll(w io.Writer, vals ...any) error {
	for _, v := range vals {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}
