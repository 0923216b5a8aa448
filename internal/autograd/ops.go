package autograd

import "aibench/internal/tensor"

// Add returns a + b element-wise.
func Add(a, b *Value) *Value {
	out := tensor.Add(a.Data, b.Data)
	node := newNode(out, a, b)
	if node.requiresGrad {
		node.back = addBack
	}
	return node
}

func addBack(n *Value, g *tensor.Tensor) {
	n.parents[0].accumGrad(g)
	n.parents[1].accumGrad(g)
}

// Sub returns a - b element-wise.
func Sub(a, b *Value) *Value {
	out := tensor.Sub(a.Data, b.Data)
	node := newNode(out, a, b)
	if node.requiresGrad {
		node.back = subBack
	}
	return node
}

func subBack(n *Value, g *tensor.Tensor) {
	n.parents[0].accumGrad(g)
	n.parents[1].accumGrad(tensor.Neg(g))
}

// Mul returns a * b element-wise.
func Mul(a, b *Value) *Value {
	out := tensor.Mul(a.Data, b.Data)
	node := newNode(out, a, b)
	if node.requiresGrad {
		node.back = mulBack
	}
	return node
}

func mulBack(n *Value, g *tensor.Tensor) {
	a, b := n.parents[0], n.parents[1]
	a.accumGrad(tensor.Mul(g, b.Data))
	b.accumGrad(tensor.Mul(g, a.Data))
}

// Scale returns alpha * a.
func Scale(a *Value, alpha float64) *Value {
	out := tensor.Scale(a.Data, alpha)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = scaleBack
		node.alpha = alpha
	}
	return node
}

func scaleBack(n *Value, g *tensor.Tensor) {
	n.parents[0].accumGrad(tensor.Scale(g, n.alpha))
}

// Neg returns -a.
func Neg(a *Value) *Value { return Scale(a, -1) }

// ReLU returns max(0, a) element-wise.
func ReLU(a *Value) *Value {
	out := tensor.ReLU(a.Data)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = reluBack
	}
	return node
}

// reluBack adds the masked upstream gradient straight into the
// parent's: no masked copy is built, and nothing at all when the parent
// needs no gradient.
func reluBack(n *Value, g *tensor.Tensor) {
	if a := n.parents[0]; a.requiresGrad {
		tensor.AddReLUGrad(a.EnsureGrad(), a.Data, g)
	}
}

// Sigmoid returns the logistic function element-wise.
func Sigmoid(a *Value) *Value {
	out := tensor.Sigmoid(a.Data)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = sigmoidBack
	}
	return node
}

func sigmoidBack(n *Value, g *tensor.Tensor) {
	out := n.Data
	da := tensor.NewLike(out)
	for i, s := range out.Data {
		da.Data[i] = g.Data[i] * s * (1 - s)
	}
	n.parents[0].accumGrad(da)
}

// Tanh returns tanh element-wise.
func Tanh(a *Value) *Value {
	out := tensor.Tanh(a.Data)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = tanhBack
	}
	return node
}

func tanhBack(n *Value, g *tensor.Tensor) {
	out := n.Data
	da := tensor.NewLike(out)
	for i, t := range out.Data {
		da.Data[i] = g.Data[i] * (1 - t*t)
	}
	n.parents[0].accumGrad(da)
}

// Mean reduces a to a scalar by averaging.
func Mean(a *Value) *Value {
	n := float64(a.Data.Size())
	out := scalar(a.Data, tensor.Sum(a.Data)/n)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = meanBack
	}
	return node
}

func meanBack(n *Value, g *tensor.Tensor) {
	a := n.parents[0]
	a.accumGrad(filled(a.Data, g.Data[0]/float64(a.Data.Size())))
}
