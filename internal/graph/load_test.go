package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The module only writes the .mnet container (Save, cmd/deploy); Load is
// the read side the round-trip tests hold Save to.

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("graph: bad magic %q", head)
	}
	var ver uint32
	if err := readAll(br, &ver); err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("graph: unsupported version %d", ver)
	}
	m := &Model{}
	var err error
	if m.Name, err = readString(br); err != nil {
		return nil, err
	}
	var in, out, nt, no uint32
	if err := readAll(br, &in, &out, &nt, &no); err != nil {
		return nil, err
	}
	m.Input, m.Output = int(in), int(out)
	for i := 0; i < int(nt); i++ {
		t := &Tensor{ID: i}
		if t.Name, err = readString(br); err != nil {
			return nil, err
		}
		var h, w, c uint32
		var bits uint8
		if err := readAll(br, &h, &w, &c, &t.Scale, &t.ZeroPoint, &bits); err != nil {
			return nil, err
		}
		t.H, t.W, t.C, t.Bits = int(h), int(w), int(c), int(bits)
		m.Tensors = append(m.Tensors, t)
	}
	for i := 0; i < int(no); i++ {
		o := &Op{}
		var kind uint8
		if err := readAll(br, &kind); err != nil {
			return nil, err
		}
		o.Kind = OpKind(kind)
		if o.Name, err = readString(br); err != nil {
			return nil, err
		}
		var nin uint8
		if err := readAll(br, &nin); err != nil {
			return nil, err
		}
		for j := 0; j < int(nin); j++ {
			var id uint32
			if err := readAll(br, &id); err != nil {
				return nil, err
			}
			o.Inputs = append(o.Inputs, int(id))
		}
		var outID uint32
		var kh, kw, sh, sw, pt, pl, pb, pr uint16
		var wbits uint8
		if err := readAll(br, &outID, &kh, &kw, &sh, &sw, &pt, &pl, &pb, &pr, &wbits); err != nil {
			return nil, err
		}
		o.Output = int(outID)
		o.KH, o.KW, o.SH, o.SW = int(kh), int(kw), int(sh), int(sw)
		o.PadTop, o.PadLeft, o.PadBottom, o.PadRight = int(pt), int(pl), int(pb), int(pr)
		o.WeightBits = int(wbits)
		var nw, npacked uint32
		if err := readAll(br, &nw, &npacked); err != nil {
			return nil, err
		}
		packed := make([]int8, npacked)
		if err := readAll(br, packed); err != nil {
			return nil, err
		}
		if o.WeightBits == 4 {
			o.Weights = UnpackInt4(int8ToBytes(packed), int(nw))
		} else {
			o.Weights = packed
		}
		var ns uint32
		if err := readAll(br, &ns); err != nil {
			return nil, err
		}
		o.WeightScales = make([]float32, ns)
		if err := readAll(br, o.WeightScales); err != nil {
			return nil, err
		}
		var nb uint32
		if err := readAll(br, &nb); err != nil {
			return nil, err
		}
		o.Bias = make([]int32, nb)
		if err := readAll(br, o.Bias); err != nil {
			return nil, err
		}
		if err := readAll(br, &o.ClampMin, &o.ClampMax); err != nil {
			return nil, err
		}
		m.Ops = append(m.Ops, o)
	}
	return m, m.Validate()
}

// UnpackInt4 is the inverse of PackInt4, producing n sign-extended values.
func UnpackInt4(packed []byte, n int) []int8 {
	out := make([]int8, n)
	for i := 0; i < n; i++ {
		var nib byte
		if i%2 == 0 {
			nib = packed[i/2] & 0x0f
		} else {
			nib = packed[i/2] >> 4
		}
		v := int8(nib)
		if v >= 8 {
			v -= 16
		}
		out[i] = v
	}
	return out
}

func int8ToBytes(b []int8) []byte {
	out := make([]byte, len(b))
	for i, v := range b {
		out[i] = byte(v)
	}
	return out
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := readAll(r, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("graph: string length %d too large", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func readAll(r io.Reader, vals ...any) error {
	for _, v := range vals {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}
