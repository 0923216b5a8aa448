package autograd

import "aibench/internal/tensor"

// Add returns a + b element-wise.
func Add(a, b *Value) *Value {
	out := tensor.Add(a.Data, b.Data)
	return newNode(out, func(g *tensor.Tensor) {
		a.accumGrad(g)
		b.accumGrad(g)
	}, a, b)
}

// Sub returns a - b element-wise.
func Sub(a, b *Value) *Value {
	out := tensor.Sub(a.Data, b.Data)
	return newNode(out, func(g *tensor.Tensor) {
		a.accumGrad(g)
		b.accumGrad(tensor.Neg(g))
	}, a, b)
}

// Mul returns a * b element-wise.
func Mul(a, b *Value) *Value {
	out := tensor.Mul(a.Data, b.Data)
	return newNode(out, func(g *tensor.Tensor) {
		a.accumGrad(tensor.Mul(g, b.Data))
		b.accumGrad(tensor.Mul(g, a.Data))
	}, a, b)
}

// Scale returns alpha * a.
func Scale(a *Value, alpha float64) *Value {
	out := tensor.Scale(a.Data, alpha)
	return newNode(out, func(g *tensor.Tensor) {
		a.accumGrad(tensor.Scale(g, alpha))
	}, a)
}

// Neg returns -a.
func Neg(a *Value) *Value { return Scale(a, -1) }

// ReLU returns max(0, a) element-wise.
func ReLU(a *Value) *Value {
	out := tensor.ReLU(a.Data)
	return newNode(out, func(g *tensor.Tensor) {
		da := tensor.NewLike(a.Data)
		for i, x := range a.Data.Data {
			if x > 0 {
				da.Data[i] = g.Data[i]
			}
		}
		a.accumGrad(da)
	}, a)
}

// Sigmoid returns the logistic function element-wise.
func Sigmoid(a *Value) *Value {
	out := tensor.Sigmoid(a.Data)
	return newNode(out, func(g *tensor.Tensor) {
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
	return newNode(out, func(g *tensor.Tensor) {
		da := tensor.NewLike(out)
		for i, t := range out.Data {
			da.Data[i] = g.Data[i] * (1 - t*t)
		}
		a.accumGrad(da)
	}, a)
}

// Mean reduces a to a scalar by averaging.
func Mean(a *Value) *Value {
	n := float64(a.Data.Size())
	out := scalar(a.Data, tensor.Sum(a.Data)/n)
	return newNode(out, func(g *tensor.Tensor) {
		a.accumGrad(filled(a.Data, g.Data[0]/n))
	}, a)
}
