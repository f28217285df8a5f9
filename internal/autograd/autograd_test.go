package autograd

import (
	"math"
	"math/rand"
	"testing"

	"micronets/internal/tensor"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// checkOp grad-checks f twice: on fresh tensors, then with every op on a
// tape whose recycled tensors are NaN-filled (see onPoisonedTape), where
// an op that reads a buffer before writing all of it fails the check.
func checkOp(t *testing.T, name string, f func([]*Var) *Var, inputs []*tensor.Tensor) {
	t.Helper()
	if _, err := GradCheck(f, inputs, 1e-2, 2e-2); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, err := GradCheck(onPoisonedTape(f, inputs), inputs, 1e-2, 2e-2); err != nil {
		t.Fatalf("%s on a recycled tape: %v", name, err)
	}
}

func TestGradAdd(t *testing.T) {
	r := rng(1)
	checkOp(t, "add", func(v []*Var) *Var {
		return Mean(Add(v[0], v[1]))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 3, 4), tensor.Randn(r, 1, 3, 4)})
}

func TestGradSubMul(t *testing.T) {
	r := rng(2)
	checkOp(t, "submul", func(v []*Var) *Var {
		return Mean(Mul(Add(v[0], Scale(v[1], -1)), v[0]))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 2, 3), tensor.Randn(r, 1, 2, 3)})
}

func TestGradMatMul(t *testing.T) {
	r := rng(3)
	checkOp(t, "matmul", func(v []*Var) *Var {
		return Mean(MatMul(v[0], v[1]))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 3, 4), tensor.Randn(r, 1, 4, 2)})
}

func TestGradReLUFamily(t *testing.T) {
	r := rng(4)
	// Offset values away from the kinks at 0 and 6.
	x := tensor.RandUniform(r, -3, 9, 2, 5)
	for i, v := range x.Data {
		if v > -0.1 && v < 0.1 || v > 5.9 && v < 6.1 {
			x.Data[i] = v + 0.5
		}
	}
	checkOp(t, "relu", func(v []*Var) *Var { return Mean(ReLU(v[0])) }, []*tensor.Tensor{x.Clone()})
	checkOp(t, "relu6", func(v []*Var) *Var { return Mean(ReLU6(v[0])) }, []*tensor.Tensor{x.Clone()})
}

func TestGradBiasAdd(t *testing.T) {
	r := rng(6)
	checkOp(t, "biasadd", func(v []*Var) *Var {
		return Mean(Square(BiasAdd(v[0], v[1])))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 2, 2, 2, 3), tensor.Randn(r, 1, 3)})
}

func TestGradChannelScale(t *testing.T) {
	r := rng(7)
	checkOp(t, "channelscale", func(v []*Var) *Var {
		return Mean(Square(ChannelScale(v[0], v[1])))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 1, 2, 2, 4), tensor.Randn(r, 1, 4)})
}

func TestGradScalarMul(t *testing.T) {
	r := rng(8)
	checkOp(t, "scalarmul", func(v []*Var) *Var {
		return Mean(Square(ScalarMul(v[1], v[0])))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 2, 3), tensor.Randn(r, 1)})
}

func TestGradConv2D(t *testing.T) {
	r := rng(9)
	spec := tensor.Same(3, 3, 2, 2, 5, 4)
	checkOp(t, "conv2d", func(v []*Var) *Var {
		return Mean(Square(Conv2D(v[0], v[1], spec)))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 1, 5, 4, 2), tensor.Randn(r, 1, 3, 3, 2, 3)})
}

func TestGradDepthwiseConv2D(t *testing.T) {
	r := rng(10)
	spec := tensor.Same(3, 3, 1, 1, 4, 4)
	checkOp(t, "dwconv", func(v []*Var) *Var {
		return Mean(Square(DepthwiseConv2D(v[0], v[1], spec)))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 1, 4, 4, 3), tensor.Randn(r, 1, 3, 3, 3)})
}

func TestGradPools(t *testing.T) {
	r := rng(11)
	spec := tensor.ConvSpec{KH: 2, KW: 2, SH: 2, SW: 2}
	checkOp(t, "avgpool", func(v []*Var) *Var {
		return Mean(Square(AvgPool2D(v[0], spec)))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 1, 4, 4, 2)})
	// A whole-map window: how a GlobalPool block trains.
	checkOp(t, "globalavgpool", func(v []*Var) *Var {
		return Mean(Square(AvgPool2D(v[0], tensor.ConvSpec{KH: 3, KW: 3, SH: 1, SW: 1})))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 2, 3, 3, 2)})
}

func TestGradMaxPool(t *testing.T) {
	// Use well-separated values so the argmax is stable under eps-perturbation.
	x := tensor.FromSlice([]float32{1, 9, 3, 5, 2, 8, 4, 7, 0, 6, 10, 11, 12, 13, 14, 15}, 1, 4, 4, 1)
	spec := tensor.ConvSpec{KH: 2, KW: 2, SH: 2, SW: 2}
	checkOp(t, "maxpool", func(v []*Var) *Var {
		return Mean(Square(MaxPool2D(v[0], spec)))
	}, []*tensor.Tensor{x})
}

func TestGradSoftmaxVec(t *testing.T) {
	r := rng(12)
	checkOp(t, "softmaxvec", func(v []*Var) *Var {
		sm := SoftmaxVec(v[0], 1.5)
		return Mean(Mul(sm, v[1]))
	}, []*tensor.Tensor{tensor.Randn(r, 1, 5), tensor.Randn(r, 1, 5)})
}

func TestGradCrossEntropy(t *testing.T) {
	r := rng(13)
	labels := []int{0, 2, 1}
	checkOp(t, "ce", func(v []*Var) *Var {
		return CrossEntropy(v[0], labels)
	}, []*tensor.Tensor{tensor.Randn(r, 1, 3, 4)})
}

func TestGradSoftCrossEntropy(t *testing.T) {
	r := rng(14)
	q := tensor.FromSlice([]float32{0.7, 0.2, 0.1, 0.1, 0.8, 0.1}, 2, 3)
	checkOp(t, "softce", func(v []*Var) *Var {
		return SoftCrossEntropy(v[0], q)
	}, []*tensor.Tensor{tensor.Randn(r, 1, 2, 3)})
}

func TestGradBatchNormTraining(t *testing.T) {
	r := rng(16)
	checkOp(t, "batchnorm", func(v []*Var) *Var {
		y, _ := BatchNorm(v[0], v[1], v[2], 1e-3, nil)
		return Mean(Square(y))
	}, []*tensor.Tensor{
		tensor.Randn(r, 1, 4, 2, 2, 3),
		tensor.RandUniform(r, 0.5, 1.5, 3),
		tensor.Randn(r, 0.5, 3),
	})
}

func TestGradBatchNormInference(t *testing.T) {
	r := rng(17)
	stats := &BatchNormStats{
		Mean: tensor.Randn(r, 0.5, 3),
		Var:  tensor.RandUniform(r, 0.5, 2, 3),
	}
	checkOp(t, "batchnorm-inf", func(v []*Var) *Var {
		y, _ := BatchNorm(v[0], v[1], v[2], 1e-3, stats)
		return Mean(Square(y))
	}, []*tensor.Tensor{
		tensor.Randn(r, 1, 2, 2, 2, 3),
		tensor.RandUniform(r, 0.5, 1.5, 3),
		tensor.Randn(r, 0.5, 3),
	})
}

func TestGradMaxNAndIndex(t *testing.T) {
	a := tensor.Scalar(1.0)
	b := tensor.Scalar(5.0)
	c := tensor.Scalar(3.0)
	va, vb, vc := Param(a), Param(b), Param(c)
	m := MaxN(va, vb, vc)
	Backward(m)
	if vb.Grad.Data[0] != 1 || va.Grad != nil && va.Grad.Data[0] != 0 {
		t.Fatalf("MaxN gradient must flow only to the max")
	}

	vec := Param(tensor.FromSlice([]float32{1, 2, 3}, 3))
	loss := Scale(Index(vec, 1), 2)
	Backward(loss)
	if vec.Grad.Data[1] != 2 || vec.Grad.Data[0] != 0 {
		t.Fatalf("Index gradient wrong: %v", vec.Grad.Data)
	}
}

func TestFakeQuantForwardLevels(t *testing.T) {
	x := Constant(tensor.FromSlice([]float32{-1.2, -0.4, 0, 0.3, 0.9, 1.5}, 6))
	y := FakeQuant(Param(x.Value), -1, 1, 8)
	// All outputs must lie on the quantization grid.
	scale := float64(2.0 / 255.0)
	for _, v := range y.Value.Data {
		q := float64(v) / scale
		if math.Abs(q-math.Round(q)) > 1e-3 {
			t.Fatalf("value %v not on the 8-bit grid", v)
		}
	}
	// Values inside range move by at most half a step.
	if math.Abs(float64(y.Value.Data[3])-0.3) > scale/2+1e-6 {
		t.Fatalf("in-range value moved too far: %v", y.Value.Data[3])
	}
}

func TestFakeQuantSTEGradientMask(t *testing.T) {
	x := Param(tensor.FromSlice([]float32{-5, 0.2, 5}, 3))
	y := FakeQuant(x, -1, 1, 8)
	Backward(Sum(y))
	if x.Grad.Data[0] != 0 || x.Grad.Data[2] != 0 {
		t.Fatalf("out-of-range STE gradient must be 0: %v", x.Grad.Data)
	}
	if x.Grad.Data[1] != 1 {
		t.Fatalf("in-range STE gradient must pass: %v", x.Grad.Data)
	}
}

func TestBackwardAccumulatesAcrossUses(t *testing.T) {
	x := Param(tensor.Scalar(3))
	y := Add(x, x) // dy/dx = 2
	Backward(Sum(y))
	if x.Grad.Data[0] != 2 {
		t.Fatalf("shared-use gradient = %v, want 2", x.Grad.Data[0])
	}
}

func TestNoGradForConstants(t *testing.T) {
	c := Constant(tensor.Scalar(5))
	x := Param(tensor.Scalar(2))
	y := Mul(c, x)
	Backward(y)
	if c.Grad != nil {
		t.Fatal("constants must not accumulate gradients")
	}
	if x.Grad.Data[0] != 5 {
		t.Fatalf("dx = %v, want 5", x.Grad.Data[0])
	}
}

func TestDeepChainNoStackOverflow(t *testing.T) {
	x := Param(tensor.Scalar(1))
	v := NewVar(x.Value, true)
	v = x
	for i := 0; i < 20000; i++ {
		v = AddScalar(v, 0.0001)
	}
	Backward(Sum(v))
	if x.Grad.Data[0] != 1 {
		t.Fatalf("deep chain gradient = %v", x.Grad.Data[0])
	}
}
