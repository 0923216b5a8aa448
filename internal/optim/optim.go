// Package optim implements the gradient-descent optimizers the AIBench
// workloads train with: SGD with momentum and weight decay, Adam and
// RMSProp. A model that decays its learning rate sets it each epoch
// through SetLR.
package optim

import (
	"math"

	"aibench/internal/nn"
	"aibench/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update using current gradients.
	Step()
	// ZeroGrad clears gradients of all managed parameters.
	ZeroGrad()
	// SetLR overrides the learning rate.
	SetLR(lr float64)
}

type base struct {
	params []*nn.Param
	lr     float64
}

func (b *base) ZeroGrad() {
	for _, p := range b.params {
		p.Value.ZeroGrad()
	}
}
func (b *base) SetLR(lr float64) { b.lr = lr }

// SGD is stochastic gradient descent with heavy-ball momentum and
// weight decay added to the gradient.
type SGD struct {
	base
	Momentum    float64
	WeightDecay float64
	velocity    []*tensor.Tensor
}

// NewSGD constructs an SGD optimizer over the module's parameters.
func NewSGD(m nn.Module, lr, momentum, weightDecay float64) *SGD {
	ps := m.Params()
	vel := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		vel[i] = tensor.New(p.Value.Data.Shape()...)
	}
	return &SGD{
		base:        base{params: ps, lr: lr},
		Momentum:    momentum,
		WeightDecay: weightDecay,
		velocity:    vel,
	}
}

// Step applies one SGD update. The decay term is added even when it is
// zero (0·w is NaN for an infinite weight).
func (s *SGD) Step() {
	lr, decay, mom := s.lr, s.WeightDecay, s.Momentum
	for i, p := range s.params {
		g := p.Value.Grad
		if g == nil {
			continue
		}
		w := p.Value.Data.Data
		gd, v := g.Data[:len(w)], s.velocity[i].Data[:len(w)]
		for j := range w {
			grad := gd[j] + decay*w[j]
			v[j] = mom*v[j] + grad
			w[j] -= lr * v[j]
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	base
	Beta1, Beta2 float64
	Eps          float64
	step         int
	m, v         []*tensor.Tensor
}

// NewAdam constructs Adam with the canonical defaults β1=0.9, β2=0.999.
func NewAdam(mod nn.Module, lr float64) *Adam {
	ps := mod.Params()
	m := make([]*tensor.Tensor, len(ps))
	v := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		m[i] = tensor.New(p.Value.Data.Shape()...)
		v[i] = tensor.New(p.Value.Data.Shape()...)
	}
	return &Adam{
		base:  base{params: ps, lr: lr},
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: m, v: v,
	}
}

// Step applies one Adam update with bias correction.
func (a *Adam) Step() {
	a.step++
	b1, b2, lr, eps := a.Beta1, a.Beta2, a.lr, a.Eps
	c1 := 1 - math.Pow(b1, float64(a.step))
	c2 := 1 - math.Pow(b2, float64(a.step))
	for i, p := range a.params {
		g := p.Value.Grad
		if g == nil {
			continue
		}
		w := p.Value.Data.Data
		gd, m, v := g.Data[:len(w)], a.m[i].Data[:len(w)], a.v[i].Data[:len(w)]
		for j := range w {
			grad := gd[j]
			m[j] = b1*m[j] + (1-b1)*grad
			v[j] = b2*v[j] + (1-b2)*grad*grad
			mHat := m[j] / c1
			vHat := v[j] / c2
			w[j] -= lr * mHat / (math.Sqrt(vHat) + eps)
		}
	}
}

// RMSProp is the RMSProp optimizer used by several recurrent workloads.
type RMSProp struct {
	base
	Alpha float64
	Eps   float64
	sq    []*tensor.Tensor
}

// NewRMSProp constructs RMSProp with decay alpha (default 0.99 in the
// reference implementations).
func NewRMSProp(mod nn.Module, lr, alpha float64) *RMSProp {
	ps := mod.Params()
	sq := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		sq[i] = tensor.New(p.Value.Data.Shape()...)
	}
	return &RMSProp{base: base{params: ps, lr: lr}, Alpha: alpha, Eps: 1e-8, sq: sq}
}

// Step applies one RMSProp update.
func (r *RMSProp) Step() {
	for i, p := range r.params {
		g := p.Value.Grad
		if g == nil {
			continue
		}
		w := p.Value.Data.Data
		gd, sq := g.Data[:len(w)], r.sq[i].Data[:len(w)]
		for j := range w {
			grad := gd[j]
			sq[j] = r.Alpha*sq[j] + (1-r.Alpha)*grad*grad
			w[j] -= r.lr * grad / (math.Sqrt(sq[j]) + r.Eps)
		}
	}
}
