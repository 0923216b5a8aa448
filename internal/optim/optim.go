// Package optim implements the gradient-descent optimizers and
// learning-rate schedules used by the AIBench reference implementations:
// SGD with momentum, Adam/AdamW, RMSProp, and Adagrad, plus step, cosine,
// exponential, and warmup schedules.
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
	// SetLR overrides the learning rate (used with schedules).
	SetLR(lr float64)
	// LR reports the current learning rate.
	LR() float64
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
func (b *base) LR() float64      { return b.lr }

// SGD is stochastic gradient descent with optional momentum, Nesterov
// acceleration, and decoupled weight decay.
type SGD struct {
	base
	Momentum    float64
	Nesterov    bool
	WeightDecay float64
	velocity    []*tensor.Tensor
}

// NewSGD constructs an SGD optimizer over the module's parameters.
func NewSGD(m nn.Module, lr, momentum, weightDecay float64, nesterov bool) *SGD {
	ps := m.Params()
	vel := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		vel[i] = tensor.New(p.Value.Data.Shape()...)
	}
	return &SGD{
		base:        base{params: ps, lr: lr},
		Momentum:    momentum,
		Nesterov:    nesterov,
		WeightDecay: weightDecay,
		velocity:    vel,
	}
}

// Step applies one SGD update. The decay term is added even when it is
// zero (0·w is NaN for an infinite weight); the momentum variant is
// picked once per parameter.
func (s *SGD) Step() {
	lr, decay, mom := s.lr, s.WeightDecay, s.Momentum
	for i, p := range s.params {
		g := p.Value.Grad
		if g == nil {
			continue
		}
		w := p.Value.Data.Data
		gd, v := g.Data[:len(w)], s.velocity[i].Data[:len(w)]
		switch {
		case mom == 0:
			for j := range w {
				grad := gd[j] + decay*w[j]
				w[j] -= lr * grad
			}
		case s.Nesterov:
			for j := range w {
				grad := gd[j] + decay*w[j]
				v[j] = mom*v[j] + grad
				grad = grad + mom*v[j]
				w[j] -= lr * grad
			}
		default:
			for j := range w {
				grad := gd[j] + decay*w[j]
				v[j] = mom*v[j] + grad
				w[j] -= lr * v[j]
			}
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba). With DecoupledDecay it
// becomes AdamW.
type Adam struct {
	base
	Beta1, Beta2   float64
	Eps            float64
	WeightDecay    float64
	DecoupledDecay bool
	step           int
	m, v           []*tensor.Tensor
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

// NewAdamW constructs Adam with decoupled weight decay.
func NewAdamW(mod nn.Module, lr, weightDecay float64) *Adam {
	a := NewAdam(mod, lr)
	a.WeightDecay = weightDecay
	a.DecoupledDecay = true
	return a
}

// Step applies one Adam update with bias correction. Whether weight
// decay is coupled (added to the gradient), decoupled (added to the
// update) or off is decided once per parameter.
func (a *Adam) Step() {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	h := adamStep{a.Beta1, a.Beta2, c1, c2, a.lr, a.Eps}
	decay := a.WeightDecay
	for i, p := range a.params {
		g := p.Value.Grad
		if g == nil {
			continue
		}
		w := p.Value.Data.Data
		gd, m, v := g.Data[:len(w)], a.m[i].Data[:len(w)], a.v[i].Data[:len(w)]
		switch {
		case decay == 0:
			for j := range w {
				w[j] -= h.update(&m[j], &v[j], gd[j])
			}
		case a.DecoupledDecay:
			for j := range w {
				upd := h.update(&m[j], &v[j], gd[j])
				upd += a.lr * decay * w[j]
				w[j] -= upd
			}
		default:
			for j := range w {
				w[j] -= h.update(&m[j], &v[j], gd[j]+decay*w[j])
			}
		}
	}
}

// adamStep is one Adam step's constants: the betas, their bias
// corrections, the learning rate and epsilon.
type adamStep struct{ b1, b2, c1, c2, lr, eps float64 }

// update moves one element's moments m and v by grad and returns its
// bias-corrected update.
func (h *adamStep) update(m, v *float64, grad float64) float64 {
	*m = h.b1*(*m) + (1-h.b1)*grad
	*v = h.b2*(*v) + (1-h.b2)*grad*grad
	mHat := *m / h.c1
	vHat := *v / h.c2
	return h.lr * mHat / (math.Sqrt(vHat) + h.eps)
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

// Adagrad is the Adagrad optimizer (per-parameter adaptive rates).
type Adagrad struct {
	base
	Eps float64
	sum []*tensor.Tensor
}

// NewAdagrad constructs Adagrad.
func NewAdagrad(mod nn.Module, lr float64) *Adagrad {
	ps := mod.Params()
	sum := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		sum[i] = tensor.New(p.Value.Data.Shape()...)
	}
	return &Adagrad{base: base{params: ps, lr: lr}, Eps: 1e-8, sum: sum}
}

// Step applies one Adagrad update.
func (a *Adagrad) Step() {
	for i, p := range a.params {
		g := p.Value.Grad
		if g == nil {
			continue
		}
		w := p.Value.Data.Data
		gd, sum := g.Data[:len(w)], a.sum[i].Data[:len(w)]
		for j := range w {
			grad := gd[j]
			sum[j] += grad * grad
			w[j] -= a.lr * grad / (math.Sqrt(sum[j]) + a.Eps)
		}
	}
}
