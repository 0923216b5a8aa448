package autograd

import "aibench/internal/tensor"

// Add returns a + b element-wise.
func Add(a, b *Value) *Value {
	out := tensor.Add(a.Data, b.Data)
	node := newNode(out, a, b)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			a.accumGrad(g)
			b.accumGrad(g)
		}
	}
	return node
}

// Sub returns a - b element-wise.
func Sub(a, b *Value) *Value {
	out := tensor.Sub(a.Data, b.Data)
	node := newNode(out, a, b)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			a.accumGrad(g)
			b.accumGrad(tensor.Neg(g))
		}
	}
	return node
}

// Mul returns a * b element-wise.
func Mul(a, b *Value) *Value {
	out := tensor.Mul(a.Data, b.Data)
	node := newNode(out, a, b)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			a.accumGrad(tensor.Mul(g, b.Data))
			b.accumGrad(tensor.Mul(g, a.Data))
		}
	}
	return node
}

// Scale returns alpha * a.
func Scale(a *Value, alpha float64) *Value {
	out := tensor.Scale(a.Data, alpha)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			a.accumGrad(tensor.Scale(g, alpha))
		}
	}
	return node
}

// Neg returns -a.
func Neg(a *Value) *Value { return Scale(a, -1) }

// ReLU returns max(0, a) element-wise.
func ReLU(a *Value) *Value {
	out := tensor.ReLU(a.Data)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			da := tensor.NewLike(a.Data)
			for i, x := range a.Data.Data {
				if x > 0 {
					da.Data[i] = g.Data[i]
				}
			}
			a.accumGrad(da)
		}
	}
	return node
}

// Sigmoid returns the logistic function element-wise.
func Sigmoid(a *Value) *Value {
	out := tensor.Sigmoid(a.Data)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			da := tensor.NewLike(out)
			for i, s := range out.Data {
				da.Data[i] = g.Data[i] * s * (1 - s)
			}
			a.accumGrad(da)
		}
	}
	return node
}

// Tanh returns tanh element-wise.
func Tanh(a *Value) *Value {
	out := tensor.Tanh(a.Data)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			da := tensor.NewLike(out)
			for i, t := range out.Data {
				da.Data[i] = g.Data[i] * (1 - t*t)
			}
			a.accumGrad(da)
		}
	}
	return node
}

// Mean reduces a to a scalar by averaging.
func Mean(a *Value) *Value {
	n := float64(a.Data.Size())
	out := scalar(a.Data, tensor.Sum(a.Data)/n)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			a.accumGrad(filled(a.Data, g.Data[0]/n))
		}
	}
	return node
}
