package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"micronets/internal/arch"
)

func kwsSmallSpec() *arch.Spec {
	return &arch.Spec{
		Name: "test-kws", Task: "kws", Source: "repro",
		InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 10, KW: 4, OutC: 16, Stride: 1},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: 24, Stride: 2},
			{Kind: arch.AvgPool, KH: 25, KW: 5, Stride: 1},
			{Kind: arch.Dense, OutC: 12},
		},
	}
}

func TestFromSpecShapesAndOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := FromSpec(kwsSmallSpec(), rng, LowerOptions{AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// conv -> dw -> pw -> pool -> fc -> softmax
	if len(m.Ops) != 6 {
		t.Fatalf("got %d ops", len(m.Ops))
	}
	a, err := kwsSmallSpec().Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalMACs() != a.TotalMACs {
		t.Fatalf("graph MACs %d != arch analyzer MACs %d", m.TotalMACs(), a.TotalMACs)
	}
	out := m.Tensors[m.Output]
	if out.Elems() != 12 {
		t.Fatalf("output elems %d, want 12", out.Elems())
	}
}

func TestFromSpecIBNResidual(t *testing.T) {
	spec := &arch.Spec{
		Name: "test-ibn", Task: "vww",
		InputH: 16, InputW: 16, InputC: 1, NumClasses: 2,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 2},
			{Kind: arch.IBN, KH: 3, KW: 3, Expand: 16, OutC: 8, Stride: 1},  // residual
			{Kind: arch.IBN, KH: 3, KW: 3, Expand: 16, OutC: 12, Stride: 2}, // no residual
			{Kind: arch.GlobalPool},
			{Kind: arch.Dense, OutC: 2},
		},
	}
	m, err := FromSpec(spec, rand.New(rand.NewSource(2)), LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, op := range m.Ops {
		if op.Kind == OpAdd {
			adds++
		}
	}
	if adds != 1 {
		t.Fatalf("expected exactly 1 residual add, got %d", adds)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := FromSpec(kwsSmallSpec(), rng, LowerOptions{AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Name != m.Name || len(m2.Ops) != len(m.Ops) || len(m2.Tensors) != len(m.Tensors) {
		t.Fatal("round trip lost structure")
	}
	for i, op := range m.Ops {
		op2 := m2.Ops[i]
		if op.Kind != op2.Kind || len(op.Weights) != len(op2.Weights) {
			t.Fatalf("op %d mismatch", i)
		}
		for j := range op.Weights {
			if op.Weights[j] != op2.Weights[j] {
				t.Fatalf("op %d weight %d mismatch", i, j)
			}
		}
		if op.ClampMin != op2.ClampMin || op.ClampMax != op2.ClampMax {
			t.Fatalf("op %d clamps mismatch", i)
		}
	}
	for i, ts := range m.Tensors {
		ts2 := m2.Tensors[i]
		if ts.Scale != ts2.Scale || ts.ZeroPoint != ts2.ZeroPoint || ts.Bits != ts2.Bits {
			t.Fatalf("tensor %d quant mismatch", i)
		}
	}
}

// TestFromSpecRefusesBadWeightBits: only 8- and 4-bit weights have
// kernels, so any other width is a lowering error rather than a model
// that silently runs as 8-bit.
func TestFromSpecRefusesBadWeightBits(t *testing.T) {
	for _, bits := range []int{3, -5, 16} {
		if _, err := FromSpec(kwsSmallSpec(), rand.New(rand.NewSource(1)), LowerOptions{WeightBits: bits}); err == nil {
			t.Errorf("WeightBits %d lowered without an error", bits)
		}
	}
}

func TestSerializeRoundTripInt4(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := FromSpec(kwsSmallSpec(), rng, LowerOptions{WeightBits: 4, ActBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Int4 weights in [-8,7]: clamp the synthetic ones.
	for _, op := range m.Ops {
		for i, w := range op.Weights {
			if w < -8 {
				op.Weights[i] = -8
			}
			if w > 7 {
				op.Weights[i] = 7
			}
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	size8 := SerializedSize(m)
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range m.Ops {
		for j := range op.Weights {
			if op.Weights[j] != m2.Ops[i].Weights[j] {
				t.Fatalf("int4 weight mismatch op %d idx %d: %d vs %d", i, j, op.Weights[j], m2.Ops[i].Weights[j])
			}
		}
	}
	// Packed int4 serialization must be smaller than the int8 variant.
	m8, _ := FromSpec(kwsSmallSpec(), rand.New(rand.NewSource(4)), LowerOptions{})
	if size8 >= SerializedSize(m8) {
		t.Fatalf("int4 model (%d) not smaller than int8 (%d)", size8, SerializedSize(m8))
	}
}

func TestQuickPackUnpackInt4(t *testing.T) {
	f := func(raw []int8) bool {
		vals := make([]int8, len(raw))
		for i, v := range raw {
			vals[i] = (v % 8)
			if vals[i] < -8 {
				vals[i] = -8
			}
		}
		packed := PackInt4(vals)
		back := UnpackInt4(packed, len(vals))
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInt4TensorBytesPacked(t *testing.T) {
	ts := &Tensor{H: 3, W: 3, C: 3, Bits: 4}
	if ts.Bytes() != 14 { // ceil(27/2)
		t.Fatalf("int4 tensor bytes = %d, want 14", ts.Bytes())
	}
	ts.Bits = 8
	if ts.Bytes() != 27 {
		t.Fatalf("int8 tensor bytes = %d, want 27", ts.Bytes())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := FromSpec(kwsSmallSpec(), rng, LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.Ops[0].Weights = m.Ops[0].Weights[:len(m.Ops[0].Weights)-1]
	if err := m.Validate(); err == nil {
		t.Fatal("validate must catch truncated weights")
	}
}

func TestFlashBytesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, err := FromSpec(kwsSmallSpec(), rng, LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := m.FlashBytes()
	parts := m.WeightBytes() + m.BiasBytes() + m.QuantParamBytes() + m.GraphDefBytes()
	if total != parts {
		t.Fatalf("FlashBytes %d != sum of parts %d", total, parts)
	}
	if m.WeightBytes() <= 0 || m.BiasBytes() <= 0 {
		t.Fatal("weights/biases must be non-empty")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTAMODEL"))); err == nil {
		t.Fatal("Load must reject bad magic")
	}
}
