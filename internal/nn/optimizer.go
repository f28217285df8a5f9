package nn

import (
	"math"

	"micronets/internal/tensor"
)

// SGD implements stochastic gradient descent with classical momentum and
// decoupled weight decay (applied only to params with Decay=true, matching
// the paper's recipes which exempt BN and biases).
type SGD struct {
	Momentum    float32
	WeightDecay float32

	velocity map[*Param]*tensor.Tensor
}

// NewSGD constructs an SGD optimizer.
func NewSGD(momentum, weightDecay float32) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, velocity: map[*Param]*tensor.Tensor{}}
}

// Step applies one update at the given learning rate and clears
// gradients.
func (o *SGD) Step(params []*Param, lr float32) {
	for _, p := range params {
		if p.V.Grad == nil {
			continue
		}
		g := p.V.Grad
		if o.WeightDecay != 0 && p.Decay {
			tensor.AxpyInPlace(g, o.WeightDecay, p.V.Value)
		}
		if o.Momentum != 0 {
			v := o.velocity[p]
			if v == nil {
				v = tensor.New(p.V.Value.Shape...)
				o.velocity[p] = v
			}
			for i := range v.Data {
				v.Data[i] = o.Momentum*v.Data[i] + g.Data[i]
			}
			g = v
		}
		tensor.AxpyInPlace(p.V.Value, -lr, g)
		p.V.ZeroGrad()
	}
}

// Adam implements the Adam optimizer with decoupled weight decay (AdamW).
type Adam struct {
	Beta1, Beta2 float32
	Eps          float32
	WeightDecay  float32

	step int
	m, v map[*Param]*tensor.Tensor
}

// NewAdam constructs an Adam optimizer with standard hyperparameters.
func NewAdam(weightDecay float32) *Adam {
	return &Adam{
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		m: map[*Param]*tensor.Tensor{}, v: map[*Param]*tensor.Tensor{},
	}
}

// Step applies one update at the given learning rate and clears
// gradients.
func (o *Adam) Step(params []*Param, lr float32) {
	o.step++
	bc1 := 1 - float32(math.Pow(float64(o.Beta1), float64(o.step)))
	bc2 := 1 - float32(math.Pow(float64(o.Beta2), float64(o.step)))
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
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g.Data[i]
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g.Data[i]*g.Data[i]
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			upd := mhat / (float32(math.Sqrt(float64(vhat))) + o.Eps)
			if o.WeightDecay != 0 && p.Decay {
				upd += o.WeightDecay * p.V.Value.Data[i]
			}
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
