package nn

import (
	"math"
	"math/rand"
	"testing"

	ag "micronets/internal/autograd"
	"micronets/internal/tensor"
)

func TestConv2DForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv2D(rng, "c", 3, 3, 2, 8, 2)
	x := ag.Constant(tensor.Randn(rng, 1, 2, 9, 9, 2))
	y := l.Forward(x, false)
	want := []int{2, 5, 5, 8}
	for i, d := range want {
		if y.Value.Shape[i] != d {
			t.Fatalf("shape %v, want %v", y.Value.Shape, want)
		}
	}
	if len(l.Params()) != 1 {
		t.Fatalf("conv params = %d, want 1", len(l.Params()))
	}
}

func TestDenseAutoFlattens(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewDense(rng, "d", 6, 4)
	x := ag.Constant(tensor.Randn(rng, 1, 2, 2, 3, 1))
	y := l.Forward(x, false)
	if y.Value.Shape[0] != 2 || y.Value.Shape[1] != 4 {
		t.Fatalf("dense shape %v", y.Value.Shape)
	}
}

func TestBatchNormNormalizesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewBatchNorm("bn", 4)
	x := ag.Constant(tensor.RandUniform(rng, 5, 10, 16, 4))
	y := l.Forward(x, true)
	// Per-channel output mean should be ~0 (beta=0) and var ~1 (gamma=1).
	for c := 0; c < 4; c++ {
		var mean float64
		for i := 0; i < 16; i++ {
			mean += float64(y.Value.Data[i*4+c])
		}
		mean /= 16
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("bn channel %d mean %v", c, mean)
		}
	}
	// Running stats moved toward the batch mean (~7.5).
	if l.RunningMean.Data[0] < 0.1 {
		t.Fatal("running mean not updated")
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	l := NewBatchNorm("bn", 1)
	l.RunningMean.Data[0] = 2
	l.RunningVar.Data[0] = 4
	x := ag.Constant(tensor.FromSlice([]float32{4}, 1, 1))
	y := l.Forward(x, false)
	want := float32((4.0 - 2.0) / math.Sqrt(4.0+1e-3))
	if absf(y.Value.Data[0]-want) > 1e-4 {
		t.Fatalf("bn inference %v, want %v", y.Value.Data[0], want)
	}
}

func TestFoldedScaleShiftEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewBatchNorm("bn", 3)
	l.RunningMean = tensor.Randn(rng, 1, 3)
	l.RunningVar = tensor.RandUniform(rng, 0.5, 2, 3)
	l.Gamma.Value = tensor.RandUniform(rng, 0.5, 1.5, 3)
	l.Beta.Value = tensor.Randn(rng, 1, 3)
	scale, shift := l.FoldedScaleShift()
	x := tensor.Randn(rng, 1, 2, 3)
	y := l.Forward(ag.Constant(x), false)
	for i := 0; i < 2; i++ {
		for c := 0; c < 3; c++ {
			want := x.Data[i*3+c]*scale[c] + shift[c]
			if absf(y.Value.Data[i*3+c]-want) > 1e-3 {
				t.Fatalf("folded mismatch at (%d,%d): %v vs %v", i, c, y.Value.Data[i*3+c], want)
			}
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := &Dropout{Rate: 0.5, Rng: rng}
	x := ag.Constant(tensor.New(1, 1000).Fill(1))
	yTrain := l.Forward(x, true)
	zeros := 0
	for _, v := range yTrain.Value.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Fatalf("dropout zeroed %d/1000", zeros)
	}
	yEval := l.Forward(x, false)
	if yEval != x {
		t.Fatal("eval dropout must be identity")
	}
}

func TestResidualIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	body := NewSequential(&Activation{Kind: "relu"})
	r := &Residual{Body: body}
	x := ag.Constant(tensor.RandUniform(rng, 1, 2, 1, 4))
	y := r.Forward(x, false)
	for i := range y.Value.Data {
		if absf(y.Value.Data[i]-2*x.Value.Data[i]) > 1e-6 {
			t.Fatal("residual with positive input must double")
		}
	}
}

func TestSequentialParamsCollects(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewSequential(
		NewConv2D(rng, "c1", 3, 3, 1, 4, 1),
		NewBatchNorm("bn1", 4),
		&Activation{Kind: "relu6"},
		NewDense(rng, "fc", 4, 2),
	)
	if got := len(m.Params()); got != 5 {
		t.Fatalf("params = %d, want 5", got)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	// Minimize (w-3)^2 with SGD+momentum.
	p := &Param{Name: "w", V: ag.Param(tensor.Scalar(0)), Decay: false}
	opt := NewSGD(0)
	for i := 0; i < 100; i++ {
		diff := ag.AddScalar(p.V, -3)
		loss := ag.Mul(diff, diff)
		ag.Backward(loss)
		opt.Step([]*Param{p}, 0.05)
	}
	if absf(p.V.Value.Data[0]-3) > 0.05 {
		t.Fatalf("SGD converged to %v, want 3", p.V.Value.Data[0])
	}
}

func TestAdamConverges(t *testing.T) {
	p := &Param{Name: "w", V: ag.Param(tensor.Scalar(-2)), Decay: false}
	opt := NewAdam()
	for i := 0; i < 400; i++ {
		diff := ag.AddScalar(p.V, -1)
		loss := ag.Mul(diff, diff)
		ag.Backward(loss)
		opt.Step([]*Param{p}, 0.05)
	}
	if absf(p.V.Value.Data[0]-1) > 0.05 {
		t.Fatalf("Adam converged to %v, want 1", p.V.Value.Data[0])
	}
}

func TestWeightDecayShrinksOnlyDecayParams(t *testing.T) {
	pd := &Param{Name: "w", V: ag.Param(tensor.Scalar(10)), Decay: true}
	pn := &Param{Name: "b", V: ag.Param(tensor.Scalar(10)), Decay: false}
	opt := NewSGD(0.1)
	// Zero loss: gradients must exist for Step to act, so use a loss with
	// zero gradient contribution.
	for i := 0; i < 10; i++ {
		l := ag.Add(ag.Scale(pd.V, 0), ag.Scale(pn.V, 0))
		ag.Backward(ag.Sum(l))
		opt.Step([]*Param{pd, pn}, 0.5)
	}
	if pd.V.Value.Data[0] >= 10 {
		t.Fatal("decay param must shrink")
	}
	if pn.V.Value.Data[0] != 10 {
		t.Fatal("non-decay param must not shrink")
	}
}

func TestCosineScheduleEndpoints(t *testing.T) {
	s := CosineSchedule{Start: 0.36, End: 0.0008, Steps: 100}
	if absf(s.LR(0)-0.36) > 1e-6 {
		t.Fatalf("LR(0) = %v", s.LR(0))
	}
	if absf(s.LR(99)-0.0008) > 1e-6 {
		t.Fatalf("LR(end) = %v", s.LR(99))
	}
	if s.LR(200) != 0.0008 {
		t.Fatal("LR past end must clamp")
	}
	mid := s.LR(49)
	if mid <= 0.0008 || mid >= 0.36 {
		t.Fatalf("LR(mid) = %v out of range", mid)
	}
	// Monotone decreasing.
	for i := 1; i < 100; i++ {
		if s.LR(i) > s.LR(i-1)+1e-7 {
			t.Fatalf("schedule not monotone at %d", i)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := &Param{V: ag.Param(tensor.Scalar(0))}
	p.V.Grad = tensor.Scalar(30)
	ClipGradNorm([]*Param{p}, 3)
	if absf(p.V.Grad.Data[0]-3) > 1e-4 {
		t.Fatalf("clipped grad = %v", p.V.Grad.Data[0])
	}
}

func TestQATProducesGridWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewConv2D(rng, "c", 3, 3, 1, 2, 1)
	l.Quant = &LayerQuant{}
	x := ag.Constant(tensor.Randn(rng, 1, 1, 4, 4, 1))
	// Two training passes to seed the activation observer.
	l.Forward(x, true)
	y := l.Forward(x, true)
	if y.Value.Len() == 0 {
		t.Fatal("empty output")
	}
	if q := l.Quant; !q.seen || q.actLo > q.actHi {
		t.Fatalf("activation observer must be seeded with a range: [%v, %v] seen=%v", q.actLo, q.actHi, q.seen)
	}
}

// TestQATQuantizesWeightsToEightBits reads a QAT dense layer's effective
// weights through an identity input: a zero LayerQuant puts all 4096 on
// at most 2^8 levels, each within half a step of its float weight.
func TestQATQuantizesWeightsToEightBits(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 64
	l := NewDense(rng, "d", n, n)
	l.Quant = &LayerQuant{}
	eye := tensor.New(n, n)
	for i := 0; i < n; i++ {
		eye.Data[i*n+i] = 1
	}
	y := l.Forward(ag.Constant(eye), false).Value.Data
	w := l.W.Value.Data
	step := 2 * max(tensor.Max(l.W.Value), -tensor.Min(l.W.Value)) / 255
	levels := map[float32]bool{}
	for i, v := range y {
		levels[v] = true
		if d := absf(v - w[i]); d > step/2+1e-6 {
			t.Fatalf("weight %d: %v quantized to %v, more than half a step %v away", i, w[i], v, step)
		}
	}
	if len(levels) > 256 {
		t.Fatalf("QAT weights take %d distinct values, want at most 256", len(levels))
	}
}

func TestTinyModelLearnsXOR(t *testing.T) {
	// End-to-end sanity: a 2-layer MLP learns XOR, proving layers,
	// losses and optimizer compose correctly.
	rng := rand.New(rand.NewSource(9))
	m := NewSequential(
		NewDense(rng, "d1", 2, 16),
		&Activation{Kind: "relu"},
		NewDense(rng, "d2", 16, 2),
	)
	xs := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	opt := NewAdam()
	for i := 0; i < 1500; i++ {
		logits := m.Forward(ag.Constant(xs), true)
		loss := ag.CrossEntropy(logits, labels)
		ag.Backward(loss)
		opt.Step(m.Params(), 0.02)
	}
	logits := m.Forward(ag.Constant(xs), false)
	correct := 0
	for i := 0; i < 4; i++ {
		row := logits.Value.Data[i*2 : (i+1)*2]
		pred := 0
		if row[1] > row[0] {
			pred = 1
		}
		if pred == labels[i] {
			correct++
		}
	}
	if correct != 4 {
		t.Fatalf("XOR accuracy %d/4", correct)
	}
}
