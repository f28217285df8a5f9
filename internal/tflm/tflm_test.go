package tflm

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"micronets/internal/arch"
	ag "micronets/internal/autograd"
	"micronets/internal/graph"
	"micronets/internal/kernels"
	"micronets/internal/tensor"
	"micronets/internal/zoo"
)

func testSpec() *arch.Spec {
	return &arch.Spec{
		Name: "planner-test", Task: "kws",
		InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 10, KW: 4, OutC: 16, Stride: 1},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: 24, Stride: 2},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: 20, Stride: 1},
			{Kind: arch.AvgPool, KH: 25, KW: 5, Stride: 1},
			{Kind: arch.Dense, OutC: 12},
		},
	}
}

func lowered(t *testing.T, seed int64) *graph.Model {
	t.Helper()
	m, err := graph.FromSpec(testSpec(), rand.New(rand.NewSource(seed)), graph.LowerOptions{AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPlanNonOverlapInvariant(t *testing.T) {
	m := lowered(t, 1)
	plan, err := PlanMemory(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanSavesVsNaive(t *testing.T) {
	m := lowered(t, 2)
	plan, err := PlanMemory(m)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ArenaBytes >= naiveArenaBytes(m) {
		t.Fatalf("planner (%d) must beat naive sum (%d)", plan.ArenaBytes, naiveArenaBytes(m))
	}
	// And can never beat the tightest single producer-consumer pair.
	biggest := 0
	for _, op := range m.Ops {
		in := m.Tensors[op.Inputs[0]].Bytes()
		out := m.Tensors[op.Output].Bytes()
		if in+out > biggest {
			biggest = in + out
		}
	}
	if plan.ArenaBytes < biggest {
		t.Fatalf("arena %d below working-set lower bound %d", plan.ArenaBytes, biggest)
	}
}

func TestQuickPlannerInvariantAcrossZoo(t *testing.T) {
	names := []string{"MicroNet-KWS-S", "MicroNet-KWS-M", "MicroNet-AD-S", "MicroNet-VWW-2", "DSCNN-S", "FC-AE(Baseline)"}
	f := func(seedRaw int64, pick uint8) bool {
		e, err := zoo.Get(names[int(pick)%len(names)])
		if err != nil || e.Spec == nil {
			return true
		}
		m, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(seedRaw)), graph.LowerOptions{})
		if err != nil {
			return false
		}
		plan, err := PlanMemory(m)
		if err != nil {
			return false
		}
		return plan.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestInterpreterRunsAndIsDeterministic(t *testing.T) {
	m := lowered(t, 3)
	ip, err := NewInterpreter(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 1, 49, 10, 1)
	// The arena reuses the input region for later tensors (as TFLM does),
	// so the input must be set before every Invoke.
	if err := ip.SetInputFloat(x); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	first := append([]float32(nil), ip.OutputFloat()...)
	if err := ip.SetInputFloat(x); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	second := ip.OutputFloat()
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("interpreter must be deterministic")
		}
	}
	// Softmax output sums to ~1.
	var sum float64
	for _, v := range second {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 0.05 {
		t.Fatalf("softmax output sums to %v", sum)
	}
}

func TestInterpreterArenaLimit(t *testing.T) {
	m := lowered(t, 5)
	if _, err := NewInterpreter(m, 16); err == nil {
		t.Fatal("tiny arena limit must fail allocation")
	}
}

func TestInterpreterRejectsTransposedConv(t *testing.T) {
	spec := zoo.ConvAutoencoder()
	m, err := graph.FromSpec(spec, rand.New(rand.NewSource(6)), graph.LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInterpreter(m, 0); err == nil {
		t.Fatal("Conv-AE must be rejected (TFLM lacks transposed conv, §6.4)")
	}
}

// TestInterpreterRejectsFourBitActivations: 4-bit activations pack two
// per byte in the arena plan but the kernels execute one element per
// byte, so construction must fail cleanly (it used to panic slicing past
// the packed arena). 4-bit weights only are still executable.
func TestInterpreterRejectsFourBitActivations(t *testing.T) {
	e, err := zoo.Get("DSCNN-S")
	if err != nil {
		t.Fatal(err)
	}
	m4, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(6)), graph.LowerOptions{ActBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInterpreter(m4, 0); err == nil {
		t.Fatal("4-bit-activation model must be rejected, not panic")
	}
	w4, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(6)), graph.LowerOptions{WeightBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := NewInterpreter(w4, 0)
	if err != nil {
		t.Fatalf("4-bit weights with 8-bit activations must stay executable: %v", err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
}

// TestExportedModelMatchesFloat is the end-to-end int8 correctness test:
// train a tiny model (a few steps so weights are non-trivial), export it
// through BN folding + per-channel quantization, and verify the int8
// interpreter agrees with the float model on classification decisions.
func TestExportedModelMatchesFloat(t *testing.T) {
	spec := &arch.Spec{
		Name: "export-test", Task: "kws",
		InputH: 12, InputW: 8, InputC: 1, NumClasses: 4,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 1},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: 12, Stride: 2},
			{Kind: arch.IBN, KH: 3, KW: 3, Expand: 16, OutC: 12, Stride: 1},
			{Kind: arch.GlobalPool},
			{Kind: arch.Dense, OutC: 4},
		},
	}
	rng := rand.New(rand.NewSource(7))
	model, err := arch.Build(rng, spec, arch.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Push a couple of batches through in training mode so BatchNorm
	// running statistics move away from their init.
	for i := 0; i < 5; i++ {
		x := tensor.Randn(rng, 1, 8, 12, 8, 1)
		model.Forward(ag.Constant(x), true)
	}
	calib := tensor.Randn(rng, 1, 16, 12, 8, 1)
	gm, err := graph.Export(spec, model, calib, graph.LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gm.Validate(); err != nil {
		t.Fatal(err)
	}
	ip, err := NewInterpreter(gm, 0)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	const trials = 24
	var worst float64
	for i := 0; i < trials; i++ {
		x := tensor.Randn(rng, 1, 1, 12, 8, 1)
		floatLogits := model.Forward(ag.Constant(x), false)
		pred, _, err := ip.Classify(x.Reshape(12, 8, 1))
		if err != nil {
			t.Fatal(err)
		}
		fBest := 0
		row := floatLogits.Value.Data
		for j, v := range row {
			if v > row[fBest] {
				fBest = j
			}
		}
		if pred == fBest {
			agree++
		}
		// Also check logit-level agreement.
		q := ip.OutputFloat()
		for j := range q {
			d := math.Abs(float64(q[j] - row[j]))
			if d > worst {
				worst = d
			}
		}
	}
	if agree < trials*3/4 {
		t.Fatalf("int8 interpreter agrees with float on %d/%d decisions", agree, trials)
	}
	if worst > 1.0 {
		t.Fatalf("worst logit deviation %v too large", worst)
	}
}

func TestMemoryReportShapes(t *testing.T) {
	m := lowered(t, 8)
	rep, err := Report(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModelSRAM() != rep.ArenaBytes+rep.PersistentBytes {
		t.Fatal("ModelSRAM composition wrong")
	}
	if rep.TotalSRAM() <= rep.ModelSRAM() {
		t.Fatal("total SRAM must add interpreter overheads")
	}
	if rep.ModelFlash() != rep.WeightsFlash+rep.QuantGraphFlash {
		t.Fatal("ModelFlash composition wrong")
	}
	if rep.RuntimeFlash != 37*1024 || rep.InterpreterSRAM != 4*1024 {
		t.Fatal("TFLM overheads must match the paper's Figure 2 values")
	}
}

func TestFitsDevice(t *testing.T) {
	m := lowered(t, 9)
	rep, err := Report(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FitsDevice(1<<30, 1<<30); err != nil {
		t.Fatalf("must fit a huge device: %v", err)
	}
	if err := rep.FitsDevice(1024, 1<<30); err == nil {
		t.Fatal("must not fit 1KB SRAM")
	}
	if err := rep.FitsDevice(1<<30, 1024); err == nil {
		t.Fatal("must not fit 1KB flash")
	}
}

// TestPaperMemoryCalibration pins the reproduction to the paper's Table 4
// memory columns for the KWS MicroNets (within 15%).
func TestPaperMemoryCalibration(t *testing.T) {
	cases := []struct {
		name            string
		sramKB, flashKB float64
	}{
		{"MicroNet-KWS-M", 103.3, 163},
		{"MicroNet-KWS-S", 53.2, 102},
		{"MicroNet-AD-M", 274.5, 464},
	}
	for _, c := range cases {
		e, err := zoo.Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(1)), graph.LowerOptions{AppendSoftmax: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Report(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		sram := float64(rep.ModelSRAM()) / 1024
		flash := float64(rep.ModelFlash()) / 1024
		if math.Abs(sram-c.sramKB)/c.sramKB > 0.20 {
			t.Errorf("%s SRAM %.1f KB vs paper %.1f KB (>20%%)", c.name, sram, c.sramKB)
		}
		if math.Abs(flash-c.flashKB)/c.flashKB > 0.25 {
			t.Errorf("%s flash %.1f KB vs paper %.1f KB (>25%%)", c.name, flash, c.flashKB)
		}
	}
}

// invokeRow runs one input row through ip and returns a copy of its
// output, so the next Invoke cannot overwrite it.
func invokeRow(ip *Interpreter, in []int8) ([]int8, error) {
	copy(ip.Input(), in)
	if err := ip.Invoke(); err != nil {
		return nil, err
	}
	return append([]int8(nil), ip.Output()...), nil
}

// randomRow returns n uniformly random int8 input bytes.
func randomRow(rng *rand.Rand, n int) []int8 {
	in := make([]int8, n)
	for i := range in {
		in[i] = int8(rng.Intn(256) - 128)
	}
	return in
}

// TestEngineParityEndToEnd runs real zoo models through both kernel
// engines and demands byte-identical outputs: the parallel GEMM path must
// be a pure performance change. It is the tier-1 bit-exactness gate for
// kernels.Default on real model shapes, KWS and VWW alike. VWW-1 gets
// one trial: its Reference invoke alone is ~140 ms, and seconds under
// -race.
func TestEngineParityEndToEnd(t *testing.T) {
	for _, c := range []struct {
		name   string
		trials int
	}{
		{"MicroNet-KWS-S", 3}, {"MicroNet-KWS-M", 3}, {"MicroNet-VWW-1", 1}, {"MicroNet-VWW-2", 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := zoo.Get(c.name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(3)), graph.LowerOptions{AppendSoftmax: true})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewInterpreterWithEngine(m, 0, kernels.Reference)
			if err != nil {
				t.Fatal(err)
			}
			gemm, err := NewInterpreterWithEngine(m, 0, kernels.Default)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			for trial := 0; trial < c.trials; trial++ {
				in := randomRow(rng, len(ref.Input()))
				want, err := invokeRow(ref, in)
				if err != nil {
					t.Fatal(err)
				}
				got, err := invokeRow(gemm, in)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d: out[%d] reference=%d gemm=%d", trial, i, want[i], got[i])
					}
				}
			}
		})
	}
}

// TestScratchPlanned checks the im2col scratch is planner-accounted and
// sized for the worst conv in the model.
func TestScratchPlanned(t *testing.T) {
	m := lowered(t, 6)
	plan, err := PlanMemory(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := kernels.ScratchBytes(m); plan.ScratchBytes < want {
		t.Fatalf("plan scratch %d below engine requirement %d", plan.ScratchBytes, want)
	}
	if plan.TotalBytes() != plan.ArenaBytes+plan.ScratchBytes {
		t.Fatal("TotalBytes must be arena + scratch")
	}
}

// TestInvokeErrorNamesOp checks the diagnosable-error satellite: an
// unsupported op must surface its index, kind and name. Since dispatch
// moved to bind time, the error now arrives at construction — before any
// request can hit it — rather than on the first Invoke.
func TestInvokeErrorNamesOp(t *testing.T) {
	m := lowered(t, 8)
	saved := m.Ops[1].Kind
	m.Ops[1].Kind = graph.OpTransposedConv
	defer func() { m.Ops[1].Kind = saved }()
	_, err := NewInterpreter(m, 0)
	if err == nil {
		t.Fatal("expected error for unsupported op")
	}
	for _, frag := range []string{"op 1", "TRANSPOSE_CONV", m.Ops[1].Name} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not name %q", err, frag)
		}
	}
}

// TestInvokeBatchErrorNamesIndex: an interpreter abandoned mid-request —
// its arena full of stale bytes — serves a clean row after Reset exactly
// as a freshly constructed one does: the pooled-reuse contract of the
// serving layer.
func TestInvokeBatchErrorNamesIndex(t *testing.T) {
	ip, err := NewInterpreter(lowered(t, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	good := make([]int8, len(ip.Input()))
	for i := range good {
		good[i] = int8(i % 100)
	}
	for i := range ip.arena {
		ip.arena[i] = -77
	}

	ip.Reset()
	got, err := invokeRow(ip, good)
	if err != nil {
		t.Fatalf("reused interpreter after Reset: %v", err)
	}
	fresh, err := NewInterpreter(ip.model, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := invokeRow(fresh, good)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reuse after Reset diverged at out[%d]: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestResetZeroesArena: Reset must return the arena to its freshly
// allocated state.
func TestResetZeroesArena(t *testing.T) {
	ip, err := NewInterpreter(lowered(t, 11), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ip.Input() {
		ip.Input()[i] = 77
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	ip.Reset()
	for i, v := range ip.arena {
		if v != 0 {
			t.Fatalf("arena[%d] = %d after Reset", i, v)
		}
	}
	if ip.ArenaBytes() != len(ip.arena) {
		t.Fatal("ArenaBytes must report the full arena")
	}
}

// TestPooledInterpretersConcurrentNoAliasing is the -race satellite: two
// interpreters over the same model serve interleaved concurrent rows
// and must match the serial baseline bit-for-bit — proving pooled
// replicas share no arena state.
func TestPooledInterpretersConcurrentNoAliasing(t *testing.T) {
	m := lowered(t, 12)
	serial, err := NewInterpreter(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	const perWorker = 6
	rng := rand.New(rand.NewSource(33))
	inputs := make([][][]int8, workers)
	want := make([][][]int8, workers)
	for w := 0; w < workers; w++ {
		inputs[w] = make([][]int8, perWorker)
		want[w] = make([][]int8, perWorker)
		for r := range inputs[w] {
			inputs[w][r] = randomRow(rng, len(serial.Input()))
			if want[w][r], err = invokeRow(serial, inputs[w][r]); err != nil {
				t.Fatal(err)
			}
		}
	}

	ips := make([]*Interpreter, workers)
	for w := range ips {
		if ips[w], err = NewInterpreter(m, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	got := make([][][]int8, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, in := range inputs[w] {
				out, err := invokeRow(ips[w], in)
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], out)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for r := range want[w] {
			for i := range want[w][r] {
				if got[w][r][i] != want[w][r][i] {
					t.Fatalf("worker %d row %d out[%d]: concurrent %d != serial %d (arena aliasing?)",
						w, r, i, got[w][r][i], want[w][r][i])
				}
			}
		}
	}
}

// TestQuantizeInputSaturates: a value far outside the quantized range
// must land on the rail on ITS side whatever the zero point — the clamp
// happens before the float→int conversion, which is implementation-
// dependent for floats outside int32 (amd64 turns +1e300 into MinInt32,
// i.e. the low rail) — and in-range values are untouched. Checked through
// both users of the one quantizer: QuantizeInput itself (the serving
// codec's float64 path) and SetInputFloat (float32).
func TestQuantizeInputSaturates(t *testing.T) {
	for _, zp := range []int32{-128, 0, 5} {
		m := lowered(t, 3)
		in := m.Tensors[m.Input]
		in.ZeroPoint = zp
		scale := float64(in.Scale)
		ip, err := NewInterpreter(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			v    float64
			want int8
		}{
			{1e300, 127}, {-1e300, -128},
			{3e9 * scale, 127}, {-3e9 * scale, -128},
			{math.Inf(1), 127}, {math.Inf(-1), -128},
			{0, int8(max(-128, min(127, zp)))},
			{10 * scale, int8(max(-128, min(127, zp+10)))},
			{-10.4 * scale, int8(max(-128, min(127, zp-10)))},
			{300 * scale, 127}, {-300 * scale, -128},
		}
		x := tensor.New(in.Elems())
		for i, c := range cases {
			if got := QuantizeInput(in, c.v); got != c.want {
				t.Errorf("zero point %d: QuantizeInput(%g) = %d, want %d", zp, c.v, got, c.want)
			}
			x.Data[i] = float32(c.v)
		}
		if err := ip.SetInputFloat(x); err != nil {
			t.Fatal(err)
		}
		for i, c := range cases {
			if got := ip.Input()[i]; got != c.want {
				t.Errorf("zero point %d: SetInputFloat(%g) = %d, want %d", zp, float32(c.v), got, c.want)
			}
		}
	}
}
