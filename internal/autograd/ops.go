package autograd

import (
	"math"

	"aibench/internal/tensor"
)

// Add returns a + b element-wise.
func Add(a, b *Value) *Value {
	out := tensor.Add(a.Data, b.Data)
	return newNode("add", out, func(g *tensor.Tensor) {
		a.accumGrad(g)
		b.accumGrad(g)
	}, a, b)
}

// Sub returns a - b element-wise.
func Sub(a, b *Value) *Value {
	out := tensor.Sub(a.Data, b.Data)
	return newNode("sub", out, func(g *tensor.Tensor) {
		a.accumGrad(g)
		b.accumGrad(tensor.Neg(g))
	}, a, b)
}

// Mul returns a * b element-wise.
func Mul(a, b *Value) *Value {
	out := tensor.Mul(a.Data, b.Data)
	return newNode("mul", out, func(g *tensor.Tensor) {
		a.accumGrad(tensor.Mul(g, b.Data))
		b.accumGrad(tensor.Mul(g, a.Data))
	}, a, b)
}

// Div returns a / b element-wise.
func Div(a, b *Value) *Value {
	out := tensor.Div(a.Data, b.Data)
	return newNode("div", out, func(g *tensor.Tensor) {
		a.accumGrad(tensor.Div(g, b.Data))
		// d(a/b)/db = -a/b².
		gb := tensor.Mul(g, a.Data)
		gb = tensor.Div(gb, tensor.Mul(b.Data, b.Data))
		b.accumGrad(tensor.Neg(gb))
	}, a, b)
}

// Scale returns alpha * a.
func Scale(a *Value, alpha float64) *Value {
	out := tensor.Scale(a.Data, alpha)
	return newNode("scale", out, func(g *tensor.Tensor) {
		a.accumGrad(tensor.Scale(g, alpha))
	}, a)
}

// AddScalar returns a + c element-wise.
func AddScalar(a *Value, c float64) *Value {
	out := tensor.AddScalar(a.Data, c)
	return newNode("addscalar", out, func(g *tensor.Tensor) {
		a.accumGrad(g)
	}, a)
}

// Neg returns -a.
func Neg(a *Value) *Value { return Scale(a, -1) }

// Pow returns a^p element-wise (a must be positive where p is fractional).
func Pow(a *Value, p float64) *Value {
	out := tensor.Pow(a.Data, p)
	return newNode("pow", out, func(g *tensor.Tensor) {
		da := tensor.Apply(a.Data, func(x float64) float64 { return p * math.Pow(x, p-1) })
		a.accumGrad(tensor.Mul(g, da))
	}, a)
}

// ReLU returns max(0, a) element-wise.
func ReLU(a *Value) *Value {
	out := tensor.ReLU(a.Data)
	return newNode("relu", out, func(g *tensor.Tensor) {
		da := tensor.NewLike(a.Data)
		for i, x := range a.Data.Data {
			if x > 0 {
				da.Data[i] = g.Data[i]
			}
		}
		a.accumGrad(da)
	}, a)
}

// LeakyReLU returns a where positive, slope*a otherwise. GAN
// discriminators in the suite use slope 0.2.
func LeakyReLU(a *Value, slope float64) *Value {
	out := tensor.Apply(a.Data, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return slope * x
	})
	return newNode("leakyrelu", out, func(g *tensor.Tensor) {
		da := tensor.NewLike(a.Data)
		for i, x := range a.Data.Data {
			if x > 0 {
				da.Data[i] = g.Data[i]
			} else {
				da.Data[i] = slope * g.Data[i]
			}
		}
		a.accumGrad(da)
	}, a)
}

// Sigmoid returns the logistic function element-wise.
func Sigmoid(a *Value) *Value {
	out := tensor.Sigmoid(a.Data)
	return newNode("sigmoid", out, func(g *tensor.Tensor) {
		da := tensor.NewLike(out)
		for i, s := range out.Data {
			da.Data[i] = g.Data[i] * s * (1 - s)
		}
		a.accumGrad(da)
	}, a)
}

// Tanh returns tanh element-wise.
func Tanh(a *Value) *Value {
	out := tensor.Tanh(a.Data)
	return newNode("tanh", out, func(g *tensor.Tensor) {
		da := tensor.NewLike(out)
		for i, t := range out.Data {
			da.Data[i] = g.Data[i] * (1 - t*t)
		}
		a.accumGrad(da)
	}, a)
}

// Exp returns e^a element-wise.
func Exp(a *Value) *Value {
	out := tensor.Exp(a.Data)
	return newNode("exp", out, func(g *tensor.Tensor) {
		a.accumGrad(tensor.Mul(g, out))
	}, a)
}

// Log returns ln(a) element-wise.
func Log(a *Value) *Value {
	out := tensor.Log(a.Data)
	return newNode("log", out, func(g *tensor.Tensor) {
		a.accumGrad(tensor.Div(g, a.Data))
	}, a)
}

// Sqrt returns sqrt(a) element-wise.
func Sqrt(a *Value) *Value {
	out := tensor.Sqrt(a.Data)
	return newNode("sqrt", out, func(g *tensor.Tensor) {
		da := tensor.NewLike(out)
		for i, s := range out.Data {
			da.Data[i] = g.Data[i] / (2 * s)
		}
		a.accumGrad(da)
	}, a)
}

// Sum reduces a to a scalar by summation.
func Sum(a *Value) *Value {
	out := scalar(a.Data, tensor.Sum(a.Data))
	return newNode("sum", out, func(g *tensor.Tensor) {
		a.accumGrad(filled(a.Data, g.Data[0]))
	}, a)
}

// Mean reduces a to a scalar by averaging.
func Mean(a *Value) *Value {
	n := float64(a.Data.Size())
	out := scalar(a.Data, tensor.Sum(a.Data)/n)
	return newNode("mean", out, func(g *tensor.Tensor) {
		a.accumGrad(filled(a.Data, g.Data[0]/n))
	}, a)
}

// Dropout applies inverted dropout with the given keep mask (as produced
// by tensor.Bernoulli). In eval mode callers simply skip the op.
func Dropout(a *Value, mask *tensor.Tensor) *Value {
	out := tensor.Mul(a.Data, mask)
	return newNode("dropout", out, func(g *tensor.Tensor) {
		a.accumGrad(tensor.Mul(g, mask))
	}, a)
}

// Abs returns |a| element-wise (subgradient 0 at 0).
func Abs(a *Value) *Value {
	out := tensor.Abs(a.Data)
	return newNode("abs", out, func(g *tensor.Tensor) {
		da := tensor.NewLike(a.Data)
		for i, x := range a.Data.Data {
			switch {
			case x > 0:
				da.Data[i] = g.Data[i]
			case x < 0:
				da.Data[i] = -g.Data[i]
			}
		}
		a.accumGrad(da)
	}, a)
}
