package autograd

import (
	"fmt"
	"math"

	"micronets/internal/tensor"
)

// logSoftmaxRows writes a numerically stable row-wise log-softmax of a
// [n,k] matrix into out and returns it (no autodiff). Shared by the loss
// ops.
func logSoftmaxRows(out, logits *tensor.Tensor) *tensor.Tensor {
	n, k := logits.Shape[0], logits.Shape[1]
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
	lsm := logSoftmaxRows(tensor.New(logits.Shape...), logits)
	return expInto(lsm, lsm)
}

// expInto writes exp(x) elementwise into dst and returns dst.
func expInto(dst, x *tensor.Tensor) *tensor.Tensor {
	for i, v := range x.Data {
		dst.Data[i] = float32(math.Exp(float64(v)))
	}
	return dst
}

// CrossEntropy computes mean cross-entropy between logits [n,k] and integer
// labels. Fused with softmax for numerical stability; the gradient is
// (softmax - onehot)/n.
func CrossEntropy(logits *Var, labels []int) *Var {
	n, k := logits.Value.Shape[0], logits.Value.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("autograd: CrossEntropy %d labels for batch %d", len(labels), n))
	}
	tp := tapeOf(logits)
	lsm := logSoftmaxRows(tp.alloc(n, k), logits.Value)
	var loss float64
	for i, y := range labels {
		if y < 0 || y >= k {
			panic(fmt.Sprintf("autograd: label %d out of range [0,%d)", y, k))
		}
		loss -= float64(lsm.Data[i*k+y])
	}
	out := tp.alloc()
	out.Data[0] = float32(loss / float64(n))
	var v *Var
	v = newOp(tp, out, func() {
		g := expInto(tp.alloc(n, k), lsm)
		for i, y := range labels {
			g.Data[i*k+y] -= 1
		}
		scale := v.Grad.Data[0] / float32(n)
		logits.accumulateOwned(tensor.Scale(g, g, scale))
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
	tp := tapeOf(logits)
	lsm := logSoftmaxRows(tp.alloc(n, k), logits.Value)
	var loss float64
	for i := range lsm.Data {
		loss -= float64(targets.Data[i]) * float64(lsm.Data[i])
	}
	out := tp.alloc()
	out.Data[0] = float32(loss / float64(n))
	var v *Var
	v = newOp(tp, out, func() {
		p := expInto(tp.alloc(n, k), lsm)
		g := tp.alloc(n, k)
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
		logits.accumulateOwned(tensor.Scale(g, g, scale))
	}, logits)
	return v
}
