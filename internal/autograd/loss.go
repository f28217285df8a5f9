package autograd

import (
	"fmt"
	"math"

	"micronets/internal/tensor"
)

// LogSoftmaxRows computes a numerically stable row-wise log-softmax of a
// [n,k] matrix, returning raw tensors (no autodiff). Shared by the loss ops.
func LogSoftmaxRows(logits *tensor.Tensor) *tensor.Tensor {
	n, k := logits.Shape[0], logits.Shape[1]
	out := tensor.New(n, k)
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		maxv := row[0]
		for _, x := range row[1:] {
			if x > maxv {
				maxv = x
			}
		}
		var sum float64
		for _, x := range row {
			sum += math.Exp(float64(x - maxv))
		}
		lse := float32(math.Log(sum)) + maxv
		dst := out.Data[i*k : (i+1)*k]
		for j, x := range row {
			dst[j] = x - lse
		}
	}
	return out
}

// SoftmaxRows computes a row-wise softmax of a [n,k] matrix (no autodiff).
func SoftmaxRows(logits *tensor.Tensor) *tensor.Tensor {
	lsm := LogSoftmaxRows(logits)
	return tensor.Apply(lsm, func(x float32) float32 { return float32(math.Exp(float64(x))) })
}

// CrossEntropy computes mean cross-entropy between logits [n,k] and integer
// labels. Fused with softmax for numerical stability; the gradient is
// (softmax - onehot)/n.
func CrossEntropy(logits *Var, labels []int) *Var {
	n, k := logits.Value.Shape[0], logits.Value.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("autograd: CrossEntropy %d labels for batch %d", len(labels), n))
	}
	lsm := LogSoftmaxRows(logits.Value)
	var loss float64
	for i, y := range labels {
		if y < 0 || y >= k {
			panic(fmt.Sprintf("autograd: label %d out of range [0,%d)", y, k))
		}
		loss -= float64(lsm.Data[i*k+y])
	}
	out := tensor.Scalar(float32(loss / float64(n)))
	var v *Var
	v = newOp(out, func() {
		g := tensor.Apply(lsm, func(x float32) float32 { return float32(math.Exp(float64(x))) })
		for i, y := range labels {
			g.Data[i*k+y] -= 1
		}
		scale := v.Grad.Data[0] / float32(n)
		logits.accumulate(tensor.Scale(g, scale))
	}, logits)
	return v
}

// SoftCrossEntropy computes mean cross-entropy against soft target
// distributions q [n,k]: loss = -mean_i Σ_j q_ij log p_ij. Used both for
// knowledge distillation (teacher probabilities) and mixup (mixed one-hots).
func SoftCrossEntropy(logits *Var, targets *tensor.Tensor) *Var {
	n, k := logits.Value.Shape[0], logits.Value.Shape[1]
	if targets.Shape[0] != n || targets.Shape[1] != k {
		panic(fmt.Sprintf("autograd: SoftCrossEntropy targets %v vs logits %v", targets.Shape, logits.Value.Shape))
	}
	lsm := LogSoftmaxRows(logits.Value)
	var loss float64
	for i := range lsm.Data {
		loss -= float64(targets.Data[i]) * float64(lsm.Data[i])
	}
	out := tensor.Scalar(float32(loss / float64(n)))
	var v *Var
	v = newOp(out, func() {
		p := tensor.Apply(lsm, func(x float32) float32 { return float32(math.Exp(float64(x))) })
		g := tensor.New(n, k)
		for i := 0; i < n; i++ {
			var qsum float32
			for j := 0; j < k; j++ {
				qsum += targets.Data[i*k+j]
			}
			for j := 0; j < k; j++ {
				g.Data[i*k+j] = p.Data[i*k+j]*qsum - targets.Data[i*k+j]
			}
		}
		scale := v.Grad.Data[0] / float32(n)
		logits.accumulate(tensor.Scale(g, scale))
	}, logits)
	return v
}

// DistillLoss blends hard-label cross-entropy with a temperature-scaled KL
// term against teacher logits, following Hinton et al. as used by the
// paper's VWW recipe (coefficient 0.5, temperature 4).
func DistillLoss(student *Var, labels []int, teacherLogits *tensor.Tensor, coeff, temperature float32) *Var {
	hard := CrossEntropy(student, labels)
	if teacherLogits == nil || coeff == 0 {
		return hard
	}
	// Soft targets at temperature T.
	scaled := tensor.Scale(teacherLogits, 1/temperature)
	q := SoftmaxRows(scaled)
	softLogits := Scale(student, 1/temperature)
	soft := SoftCrossEntropy(softLogits, q)
	// The T² factor keeps gradient magnitudes comparable across temperatures.
	return Add(Scale(hard, 1-coeff), Scale(soft, coeff*temperature*temperature))
}
