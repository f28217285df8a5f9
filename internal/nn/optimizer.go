package nn

import (
	"math"

	"micronets/internal/tensor"
)

// sgdMomentum is SGD's classical momentum.
const sgdMomentum float32 = 0.9

// SGD implements stochastic gradient descent with classical momentum and
// weight decay (applied only to params with Decay=true, matching the
// paper's recipes which exempt BN and biases).
type SGD struct {
	weightDecay float32
	velocity    map[*Param]*tensor.Tensor
}

// NewSGD constructs an SGD optimizer with the given weight decay.
func NewSGD(weightDecay float32) *SGD {
	return &SGD{weightDecay: weightDecay, velocity: map[*Param]*tensor.Tensor{}}
}

// Step applies one update at the given learning rate and clears
// gradients.
func (o *SGD) Step(params []*Param, lr float32) {
	for _, p := range params {
		if p.V.Grad == nil {
			continue
		}
		g := p.V.Grad
		if o.weightDecay != 0 && p.Decay {
			tensor.AxpyInPlace(g, o.weightDecay, p.V.Value)
		}
		v := o.velocity[p]
		if v == nil {
			v = tensor.New(p.V.Value.Shape...)
			o.velocity[p] = v
		}
		for i := range v.Data {
			v.Data[i] = sgdMomentum*v.Data[i] + g.Data[i]
		}
		tensor.AxpyInPlace(p.V.Value, -lr, v)
		p.V.ZeroGrad()
	}
}

// Adam's standard hyperparameters.
const (
	adamBeta1 float32 = 0.9
	adamBeta2 float32 = 0.999
	adamEps   float32 = 1e-8
)

// Adam implements the Adam optimizer without weight decay.
type Adam struct {
	step int
	m, v map[*Param]*tensor.Tensor
}

// NewAdam constructs an Adam optimizer.
func NewAdam() *Adam {
	return &Adam{m: map[*Param]*tensor.Tensor{}, v: map[*Param]*tensor.Tensor{}}
}

// Step applies one update at the given learning rate and clears
// gradients.
func (o *Adam) Step(params []*Param, lr float32) {
	o.step++
	bc1 := 1 - float32(math.Pow(float64(adamBeta1), float64(o.step)))
	bc2 := 1 - float32(math.Pow(float64(adamBeta2), float64(o.step)))
	for _, p := range params {
		if p.V.Grad == nil {
			continue
		}
		g := p.V.Grad
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = tensor.New(p.V.Value.Shape...)
			v = tensor.New(p.V.Value.Shape...)
			o.m[p] = m
			o.v[p] = v
		}
		for i := range g.Data {
			m.Data[i] = adamBeta1*m.Data[i] + (1-adamBeta1)*g.Data[i]
			v.Data[i] = adamBeta2*v.Data[i] + (1-adamBeta2)*g.Data[i]*g.Data[i]
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			upd := mhat / (float32(math.Sqrt(float64(vhat))) + adamEps)
			p.V.Value.Data[i] -= lr * upd
		}
		p.V.ZeroGrad()
	}
}

// CosineSchedule decays the learning rate from Start to End over Steps
// using a half-cosine, the schedule used in all the paper's training
// recipes (§5.2).
type CosineSchedule struct {
	Start, End float32
	Steps      int
}

// LR returns the learning rate at the given step (clamped to the schedule).
func (s CosineSchedule) LR(step int) float32 {
	if s.Steps <= 1 {
		return s.End
	}
	if step >= s.Steps {
		return s.End
	}
	if step < 0 {
		step = 0
	}
	frac := float64(step) / float64(s.Steps-1)
	cos := 0.5 * (1 + math.Cos(math.Pi*frac))
	return s.End + (s.Start-s.End)*float32(cos)
}

// GradNorm returns the global L2 norm of all parameter gradients, a
// convenient training-health diagnostic.
func GradNorm(params []*Param) float32 {
	var sum float64
	for _, p := range params {
		if p.V.Grad == nil {
			continue
		}
		n := tensor.Norm2(p.V.Grad)
		sum += float64(n) * float64(n)
	}
	return float32(math.Sqrt(sum))
}

// ClipGradNorm rescales all gradients so their global norm is at most max.
func ClipGradNorm(params []*Param, max float32) {
	n := GradNorm(params)
	if n <= max || n == 0 {
		return
	}
	scale := max / n
	for _, p := range params {
		if p.V.Grad == nil {
			continue
		}
		for i := range p.V.Grad.Data {
			p.V.Grad.Data[i] *= scale
		}
	}
}
