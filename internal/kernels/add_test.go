package kernels

import (
	"math"
	"math/rand"
	"testing"

	"micronets/internal/graph"
	"micronets/internal/zoo"
)

// addModel is a one-ADD model over n elements: inputs a and b at scales
// sa and sb, the output at so, with the given zero points and clamp.
func addModel(n int, sa, sb, so float64, za, zb, zo int8, lo, hi int32) *graph.Model {
	m := &graph.Model{Name: "add"}
	for i, q := range []struct {
		s  float64
		zp int8
	}{{sa, za}, {sb, zb}, {so, zo}} {
		m.Tensors = append(m.Tensors, &graph.Tensor{
			ID: i, Name: []string{"a", "b", "out"}[i], H: 1, W: 1, C: n,
			Scale: float32(q.s), ZeroPoint: int32(q.zp), Bits: 8,
		})
	}
	m.Ops = []*graph.Op{{Kind: graph.OpAdd, Name: "add", Inputs: []int{0, 1}, Output: 2, ClampMin: lo, ClampMax: hi}}
	m.Input, m.Output = 0, 2
	return m
}

// addFloat64 is the ADD this package ran before the integer-only form:
// both inputs rescaled to the output scale in float64 and rounded half
// away from zero. It stays as test code, the yardstick the zoo's ADD ops
// are held to.
func addFloat64(m *graph.Model, op *graph.Op, a, b, out []int8) {
	at, bt, ot := m.Tensors[op.Inputs[0]], m.Tensors[op.Inputs[1]], m.Tensors[op.Output]
	sa := float64(at.Scale) / float64(ot.Scale)
	sb := float64(bt.Scale) / float64(ot.Scale)
	for i := range out {
		va := float64(int32(a[i])-at.ZeroPoint) * sa
		vb := float64(int32(b[i])-bt.ZeroPoint) * sb
		v := int32(math.Round(va+vb)) + ot.ZeroPoint
		out[i] = int8(clamp32(v, op.ClampMin, op.ClampMax))
	}
}

// FuzzAddParity: every compiled-in Default body of ADD equals Reference
// byte for byte. Lengths run 1-300, so the eight-lane body meets every
// tail; each input's scale is the output's times 10^(e/1000) for e in
// (-6000, 6000), so besides the vector domain the seeds and the fuzzer
// reach right shifts past 30 and a left-shifted output multiplier, which
// must fall back to the portable loop. Zero points and clamps are free.
// Each case also runs checkAddVec.
func FuzzAddParity(f *testing.F) {
	f.Add(uint16(1), int16(0), int16(0), int8(0), int8(0), int8(0), int8(-128), int8(127), int64(1))
	f.Add(uint16(8), int16(-400), int16(0), int8(-128), int8(-128), int8(0), int8(-128), int8(127), int64(2))
	f.Add(uint16(9), int16(222), int16(-3000), int8(5), int8(-7), int8(-128), int8(-128), int8(127), int64(3))
	f.Add(uint16(299), int16(3000), int16(-3000), int8(127), int8(-128), int8(33), int8(-20), int8(90), int64(4))
	f.Add(uint16(300), int16(-3000), int16(-3000), int8(0), int8(0), int8(-128), int8(0), int8(0), int64(5))
	f.Add(uint16(64), int16(5999), int16(5999), int8(1), int8(2), int8(3), int8(-128), int8(127), int64(6))
	f.Add(uint16(63), int16(-5999), int16(-5999), int8(-1), int8(-2), int8(-3), int8(-128), int8(127), int64(7))
	f.Add(uint16(17), int16(5999), int16(-5999), int8(10), int8(-10), int8(0), int8(-8), int8(7), int64(8))
	f.Fuzz(func(t *testing.T, n uint16, ea, eb int16, za, zb, zo, l1, l2 int8, seed int64) {
		size := 1 + int(n%300)
		ratio := func(e int16) float64 { return math.Pow(10, float64(e%6000)/1000) }
		m := addModel(size, 0.05*ratio(ea), 0.05*ratio(eb), 0.05, za, zb, zo, int32(min(l1, l2)), int32(max(l1, l2)))
		rng := rand.New(rand.NewSource(seed))
		checkParity(t, m, randomInput(size, rng), randomInput(size, rng))
		checkAddVec(t, za, zb, zo, int32(min(l1, l2)), int32(max(l1, l2)), rng)
	})
}

// checkAddVec drives addVec straight from an addParams whose three
// multipliers are free (any Q31 mantissa), not tied to each other as
// scales make them, and 64 lanes must equal the portable loop. The input
// right shifts are 16-30, so each rescaled input is a few units to a few
// thousand, and the output's is 0-12, so one unit in the sum can move
// the output: a rescale that reads another's multiplier, shift, mask or
// half-mask shows.
func checkAddVec(t *testing.T, za, zb, zo int8, lo, hi int32, rng *rand.Rand) {
	if !haveSIMD {
		return
	}
	m := addModel(64, 1, 1, 1, za, zb, zo, lo, hi)
	ctx := newCtx(3, lo, hi)
	for i, shifts := range [3][2]int{{16, 30}, {16, 30}, {0, 12}} {
		shift := shifts[0] + rng.Intn(shifts[1]-shifts[0]+1)
		ctx.prepareMult(i, QuantizedMultiplier{M0: 1<<30 + rng.Int31n(1<<30), Shift: -shift})
	}
	p := newAddParams(m, m.Ops[0], ctx)
	a, b := randomInput(64, rng), randomInput(64, rng)
	got, want := make([]int8, 64), make([]int8, 64)
	addVec(&a[0], &b[0], 64, &p, &got[0])
	p.add(a, b, want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("addVec lane %d (a %d, b %d, multipliers %v >> %v, zero points %d %d %d, clamp [%d,%d]) = %d, portable loop %d",
				i, a[i], b[i], p.m0, p.rshift, za, zb, zo, lo, hi, got[i], want[i])
		}
	}
}

// TestAddMatchesFloatOnZoo: on the zoo's models as FromSpec lowers them
// (seed 42, 8-bit), the integer-only ADD gives what the float64 form gave
// for all 65,536 (a, b) pairs of every ADD op, on Reference and on every
// Default body — so moving to it changed no served byte.
func TestAddMatchesFloatOnZoo(t *testing.T) {
	const pairs = 1 << 16
	a, b := make([]int8, pairs), make([]int8, pairs)
	for i := range a {
		a[i], b[i] = int8(i), int8(i>>8)
	}
	want, got := make([]int8, pairs), make([]int8, pairs)
	engines := defaultBodies()
	engines["reference"] = Reference
	ops := 0
	for _, name := range zoo.Names() {
		spec, err := zoo.Spec(name)
		if err != nil {
			continue
		}
		m, err := graph.FromSpec(spec, rand.New(rand.NewSource(42)), graph.LowerOptions{WeightBits: 8, ActBits: 8})
		if err != nil {
			continue
		}
		prep := PrepareModel(m)
		for i, op := range m.Ops {
			if op.Kind != graph.OpAdd {
				continue
			}
			ops++
			addFloat64(m, op, a, b, want)
			for body, eng := range engines {
				bufs := make([][]int8, len(m.Tensors))
				bufs[op.Inputs[0]], bufs[op.Inputs[1]], bufs[op.Output] = a, b, got
				fn, err := BindOp(eng, m, op, prep.Ctx(i), bufs, NewScratch(m, nil))
				if err != nil {
					t.Fatal(err)
				}
				fn()
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s %s on %s: a=%d b=%d gives %d, the float64 form %d",
							name, op.Name, body, a[j], b[j], got[j], want[j])
					}
				}
			}
		}
	}
	if ops < 10 {
		t.Fatalf("only %d ADD ops in the zoo; the lowering lost its residuals", ops)
	}
}

// TestAddTFLMVector pins one ADD worked by hand, with distinct scales
// (float32 0.01, 0.02, 0.1; zero points 0) at a = −127, b = 36, where the
// integer-only form and the float64 form part. Twice the larger input
// scale is 0.04, so the multipliers are a: 0.25 (M0 2^30, right shift 1),
// b: 0.5 (M0 2^30, shift 0) and out: 0.04/(2^20·0.1) ≈ 0.8·2^-21 (M0
// 1717986854, shift 21; float32 0.1 is slightly above 0.1).
//
//	a: −127·2^20 → ·0.5 → −66584576 → /2 → −33292288
//	b:   36·2^20 → ·0.5 →  18874368
//	sum −14417920 → ·M0/2^31 = −11534335.57…, rounded −11534336 = −5.5·2^21
//	→ RoundingDivideByPOT(·, 21): −5.5 rounds away from zero to −6
//
// The float64 form computes −5.4999998 from the float32 scales and
// rounds it to −5.
func TestAddTFLMVector(t *testing.T) {
	m := addModel(1, 0.01, 0.02, 0.1, 0, 0, 0, -128, 127)
	ctx := prepareAdd(m, m.Ops[0])
	if ctx.m0[0] != 1<<30 || ctx.rshift[0] != 1 || ctx.m0[1] != 1<<30 || ctx.rshift[1] != 0 ||
		ctx.m0[2] != 1717986854 || ctx.rshift[2] != 21 {
		t.Fatalf("multipliers m0 %v rshift %v, want [2^30 2^30 1717986854] [1 0 21]", ctx.m0, ctx.rshift)
	}
	a, b := []int8{-127}, []int8{36}
	out := make([]int8, 1)
	Add(m, m.Ops[0], ctx, a, b, out)
	if out[0] != -6 {
		t.Fatalf("integer ADD(-127, 36) = %d, want -6", out[0])
	}
	addFloat64(m, m.Ops[0], a, b, out)
	if out[0] != -5 {
		t.Fatalf("float64 ADD(-127, 36) = %d, want -5: the vector no longer tells the two forms apart", out[0])
	}
	checkParity(t, m, a, b)
}
