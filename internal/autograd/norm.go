package autograd

import (
	"fmt"
	"math"

	"micronets/internal/tensor"
)

// BatchNormStats holds per-channel batch statistics computed by BatchNorm's
// forward pass, so the owning layer can maintain running averages.
type BatchNormStats struct {
	Mean, Var *tensor.Tensor
}

// BatchNorm normalizes x over all dimensions except the last (channel)
// dimension, then applies a per-channel affine transform gamma*xhat+beta.
//
// If useStats is non-nil those statistics are used (inference mode) and
// receive no gradient; otherwise batch statistics are computed and returned.
func BatchNorm(x, gamma, beta *Var, eps float32, useStats *BatchNormStats) (*Var, *BatchNormStats) {
	c := x.Value.Dim(-1)
	if gamma.Value.Len() != c || beta.Value.Len() != c {
		panic(fmt.Sprintf("autograd: BatchNorm params len %d/%d vs channels %d",
			gamma.Value.Len(), beta.Value.Len(), c))
	}
	tp := tapeOf(x, gamma, beta)
	xd := x.Value.Data
	m := len(xd) / c
	fm := float32(m)
	training := useStats == nil
	stats := useStats
	if training {
		stats = &BatchNormStats{Mean: tensor.New(c), Var: tensor.New(c)}
		batchStats(stats.Mean.Data[:c], stats.Var.Data[:c], tp.alloc(c).Data[:c], xd, fm)
	}
	mean, variance := stats.Mean.Data[:c], stats.Var.Data[:c]

	// The normalise pass: xhat and the affine output, row by row, the
	// output as beta + gamma·xhat.
	invStd := tp.alloc(c)
	is := invStd.Data[:c]
	for j := range is {
		is[j] = float32(1 / math.Sqrt(float64(variance[j]+eps)))
	}
	xhat := tp.alloc(x.Value.Shape...)
	out := tp.alloc(x.Value.Shape...)
	g, b := gamma.Value.Data[:c], beta.Value.Data[:c]
	for i := 0; i < len(xd); i += c {
		xr, hr, yr := xd[i:i+c], xhat.Data[i:i+c], out.Data[i:i+c]
		for j, xv := range xr {
			hr[j] = (xv - mean[j]) * is[j]
		}
		copy(yr, b)
		tensor.MulAdd(yr, g, hr)
	}

	var v *Var
	v = newOp(tp, out, func() {
		// dbeta_j = Σ dy, dgamma_j = Σ dy*xhat
		dgamma, dbeta := tp.zeroed(c), tp.zeroed(c)
		dg, db := dgamma.Data[:c], dbeta.Data[:c]
		dy := v.Grad.Data
		for i := 0; i < len(dy); i += c {
			tensor.MulAdd(dg, dy[i:i+c], xhat.Data[i:i+c])
			tensor.Axpy(db, 1, dy[i:i+c]) // dy·1 is exact
		}
		gamma.accumulate(dgamma.Reshape(gamma.Value.Shape...))
		beta.accumulate(dbeta.Reshape(beta.Value.Shape...))
		if !x.requiresGrad {
			return
		}
		dx := tp.alloc(x.Value.Shape...)
		if training {
			// Full batch-norm backward: statistics depend on x.
			// dx = gamma*invStd/m * (m*dy - Σdy - xhat*Σ(dy*xhat)),
			// with the per-channel factor gamma*invStd/m formed once,
			// in the order the per-element expression would.
			k := tp.alloc(c)
			kd := k.Data[:c]
			for j := range kd {
				kd[j] = g[j] * is[j] / fm
			}
			for i := 0; i < len(dy); i += c {
				gr, hr, dr := dy[i:i+c], xhat.Data[i:i+c], dx.Data[i:i+c]
				for j, gv := range gr {
					dr[j] = kd[j] * (fm*gv - db[j] - hr[j]*dg[j])
				}
			}
		} else {
			// Frozen statistics: plain affine.
			for i := 0; i < len(dy); i += c {
				gr, dr := dy[i:i+c], dx.Data[i:i+c]
				for j, gv := range gr {
					dr[j] = gv * g[j] * is[j]
				}
			}
		}
		x.accumulateOwned(dx)
	}, x, gamma, beta)

	if training {
		return v, stats
	}
	return v, nil
}

// batchStats is BatchNorm's stats pass over x, rows of len(mean)
// channels: the batch mean, then the biased variance about it, each
// summed in row order and divided by the row count fm. d is a row of
// scratch.
func batchStats(mean, variance, d, x []float32, fm float32) {
	c := len(mean)
	for i := 0; i < len(x); i += c {
		tensor.Axpy(mean, 1, x[i:i+c]) // x·1 is exact
	}
	for j := range mean {
		mean[j] /= fm
	}
	for i := 0; i < len(x); i += c {
		for j, xv := range x[i : i+c] {
			d[j] = xv - mean[j]
		}
		tensor.MulAdd(variance, d, d)
	}
	for j := range variance {
		variance[j] /= fm
	}
}
