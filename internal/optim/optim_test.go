package optim

import (
	"math"
	"math/rand"
	"testing"

	"aibench/internal/autograd"
	"aibench/internal/nn"
	"aibench/internal/tensor"
)

// trainXOR trains a 2-layer MLP on XOR with the given optimizer factory
// and returns the final loss — the smoke test that the whole
// tensor/autograd/nn/optim stack actually learns.
func trainXOR(t *testing.T, mk func(nn.Module) Optimizer, steps int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	model := nn.NewSequential(
		nn.NewLinear(rng, 2, 8),
		nn.Tanh{},
		nn.NewLinear(rng, 8, 2),
	)
	x := tensor.FromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	opt := mk(model)
	var loss float64
	for i := 0; i < steps; i++ {
		opt.ZeroGrad()
		out := model.Forward(autograd.Const(x))
		l := autograd.SoftmaxCrossEntropy(out, labels)
		l.Backward()
		opt.Step()
		loss = l.Item()
	}
	return loss
}

func TestSGDLearnsXOR(t *testing.T) {
	loss := trainXOR(t, func(m nn.Module) Optimizer {
		return NewSGD(m, 0.5, 0.9, 0)
	}, 400)
	if loss > 0.05 {
		t.Fatalf("SGD final loss %g, want < 0.05", loss)
	}
}

func TestAdamLearnsXOR(t *testing.T) {
	loss := trainXOR(t, func(m nn.Module) Optimizer {
		return NewAdam(m, 0.05)
	}, 300)
	if loss > 0.05 {
		t.Fatalf("Adam final loss %g, want < 0.05", loss)
	}
}

func TestRMSPropLearnsXOR(t *testing.T) {
	loss := trainXOR(t, func(m nn.Module) Optimizer {
		return NewRMSProp(m, 0.01, 0.99)
	}, 400)
	if loss > 0.1 {
		t.Fatalf("RMSProp final loss %g, want < 0.1", loss)
	}
}

func TestSGDQuadraticConvergence(t *testing.T) {
	// Minimize ||w - 3||² directly: gradient descent must reach w = 3.
	w := &nn.Param{Name: "w", Value: autograd.Var(tensor.FromSlice([]float64{0}, 1))}
	mod := paramModule{w}
	opt := NewSGD(mod, 0.1, 0, 0)
	target := tensor.FromSlice([]float64{3}, 1)
	for i := 0; i < 200; i++ {
		opt.ZeroGrad()
		autograd.MSELoss(w.Value, target).Backward()
		opt.Step()
	}
	if math.Abs(w.Value.Data.Data[0]-3) > 1e-3 {
		t.Fatalf("w = %g, want 3", w.Value.Data.Data[0])
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	w := &nn.Param{Name: "w", Value: autograd.Var(tensor.FromSlice([]float64{10}, 1))}
	mod := paramModule{w}
	opt := NewSGD(mod, 0.1, 0, 0.5)
	// No loss gradient: only decay acts.
	w.Value.Grad = tensor.New(1)
	for i := 0; i < 10; i++ {
		opt.Step()
	}
	if w.Value.Data.Data[0] >= 10 {
		t.Fatal("weight decay had no effect")
	}
}

type paramModule struct{ p *nn.Param }

func (m paramModule) Params() []*nn.Param { return []*nn.Param{m.p} }

type paramsModule []*nn.Param

func (m paramsModule) Params() []*nn.Param { return m }

// stepOracle is one parameter's update at 1-based step count step,
// written per element with every branch inside the loop; s1 and s2 are
// the parameter's optimizer state.
type stepOracle func(step int, w, g, s1, s2 []float64)

// TestStepMatchesPerElementFormula steps every optimizer five times
// and demands the weights stay bit-equal to the per-element formula.
// Signed-zero gradients and weights ride along, and one weight is
// infinite, so an SGD update that skips a zero decay term (0·∞ is NaN)
// fails here too.
func TestStepMatchesPerElementFormula(t *testing.T) {
	sgd := func(lr, mom, wd float64) stepOracle {
		return func(_ int, w, g, v, _ []float64) {
			for j := range w {
				grad := g[j] + wd*w[j]
				v[j] = mom*v[j] + grad
				w[j] -= lr * v[j]
			}
		}
	}
	// Variables, not constants: constant arithmetic is exact, so 1-0.9
	// would not round like the optimizer's 1-Beta1.
	b1, b2, eps := 0.9, 0.999, 1e-8
	adam := func(lr float64) stepOracle {
		return func(step int, w, g, m, v []float64) {
			c1 := 1 - math.Pow(b1, float64(step))
			c2 := 1 - math.Pow(b2, float64(step))
			for j := range w {
				grad := g[j]
				m[j] = b1*m[j] + (1-b1)*grad
				v[j] = b2*v[j] + (1-b2)*grad*grad
				mHat := m[j] / c1
				vHat := v[j] / c2
				w[j] -= lr * mHat / (math.Sqrt(vHat) + eps)
			}
		}
	}
	rmsprop := func(lr, alpha float64) stepOracle {
		return func(_ int, w, g, sq, _ []float64) {
			for j := range w {
				grad := g[j]
				sq[j] = alpha*sq[j] + (1-alpha)*grad*grad
				w[j] -= lr * grad / (math.Sqrt(sq[j]) + eps)
			}
		}
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name   string
		mk     func(nn.Module) Optimizer
		oracle stepOracle
	}{
		{"sgd", func(m nn.Module) Optimizer { return NewSGD(m, 0.1, 0.9, 0) }, sgd(0.1, 0.9, 0)},
		{"sgd decay", func(m nn.Module) Optimizer { return NewSGD(m, 0.1, 0.9, 0.01) }, sgd(0.1, 0.9, 0.01)},
		{"adam", func(m nn.Module) Optimizer { return NewAdam(m, 0.05) }, adam(0.05)},
		{"rmsprop", func(m nn.Module) Optimizer { return NewRMSProp(m, 0.01, 0.99) }, rmsprop(0.01, 0.99)},
	} {
		sizes := []int{7, 5, 3} // the last parameter never gets a gradient
		var mod paramsModule
		var want, s1, s2 [][]float64
		for i, n := range sizes {
			w := make([]float64, n)
			for j := range w {
				w[j] = 3 * math.Sin(float64(5*i+j+1))
			}
			w[0], w[n-1] = negZero, math.Inf(1)
			mod = append(mod, &nn.Param{Value: autograd.Var(tensor.FromSlice(append([]float64(nil), w...), n))})
			want = append(want, w)
			s1, s2 = append(s1, make([]float64, n)), append(s2, make([]float64, n))
		}
		opt := c.mk(mod)
		for step := 1; step <= 5; step++ {
			for i, n := range sizes[:len(sizes)-1] {
				g := make([]float64, n)
				for j := range g {
					g[j] = math.Sin(float64(31*step + 7*j + i))
				}
				g[0], g[1] = negZero, 0
				mod[i].Value.Grad = tensor.FromSlice(append([]float64(nil), g...), n)
				c.oracle(step, want[i], g, s1[i], s2[i])
			}
			opt.Step()
			for i, p := range mod {
				for j, got := range p.Value.Data.Data {
					if math.Float64bits(got) != math.Float64bits(want[i][j]) {
						t.Fatalf("%s step %d: param %d[%d] = %v, formula gives %v", c.name, step, i, j, got, want[i][j])
					}
				}
			}
		}
	}
}

// TestConstructionAllocs pins what building an optimizer costs the
// heap: a constant count of objects, however many parameters it
// manages. Every state vector is a view of one slab.
func TestConstructionAllocs(t *testing.T) {
	module := func(n int) nn.Module {
		var mod paramsModule
		for i := range n {
			mod = append(mod, &nn.Param{Value: autograd.Var(tensor.New(i%4+1, 3))})
		}
		return mod // boxed once here, not per construction
	}
	few, many := module(3), module(300)
	for _, c := range []struct {
		name string
		mk   func(nn.Module) Optimizer
	}{
		{"sgd", func(m nn.Module) Optimizer { return NewSGD(m, 0.1, 0.9, 0) }},
		{"adam", func(m nn.Module) Optimizer { return NewAdam(m, 0.05) }},
		{"rmsprop", func(m nn.Module) Optimizer { return NewRMSProp(m, 0.01, 0.99) }},
	} {
		a := testing.AllocsPerRun(10, func() { c.mk(few) })
		b := testing.AllocsPerRun(10, func() { c.mk(many) })
		if a != b || a > 3 {
			t.Errorf("%s: construction makes %v objects over 3 parameters and %v over 300, want the same count, ≤ 3", c.name, a, b)
		}
	}
}
