package tensor

import (
	"fmt"
	"math"
)

func checkSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := ArenaOf(a, b).New(a.shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	checkSameShape("Sub", a, b)
	out := ArenaOf(a, b).New(a.shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Mul returns a * b element-wise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSameShape("Mul", a, b)
	out := ArenaOf(a, b).New(a.shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// AddInPlace adds b into a.
func AddInPlace(a, b *Tensor) {
	checkSameShape("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Scale returns alpha * a.
func Scale(a *Tensor, alpha float64) *Tensor {
	out := NewLike(a)
	for i := range a.Data {
		out.Data[i] = alpha * a.Data[i]
	}
	return out
}

// ScaleInPlace multiplies every element of a by alpha.
func ScaleInPlace(a *Tensor, alpha float64) {
	for i := range a.Data {
		a.Data[i] *= alpha
	}
}

// Neg returns -a.
func Neg(a *Tensor) *Tensor { return Scale(a, -1) }

// Apply returns f applied element-wise to a.
func Apply(a *Tensor, f func(float64) float64) *Tensor {
	out := NewLike(a)
	for i := range a.Data {
		out.Data[i] = f(a.Data[i])
	}
	return out
}

// Tanh returns tanh(a) element-wise.
func Tanh(a *Tensor) *Tensor { return Apply(a, math.Tanh) }

// Sigmoid returns the logistic function of a element-wise.
func Sigmoid(a *Tensor) *Tensor {
	return Apply(a, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
}

// ReLU returns max(0, a) element-wise; NaN and −0 map to +0. A direct
// loop over the zero-filled result, not Apply: an indirect call per
// element is most of the cost of an op this cheap.
func ReLU(a *Tensor) *Tensor {
	out := NewLike(a)
	for i, x := range a.Data {
		if x > 0 {
			out.Data[i] = x
		}
	}
	return out
}

// AddRowVector adds a 1-D vector v (length = a's last dim) to every row of
// the 2-D tensor a. This is the bias-broadcast used by Linear layers.
func AddRowVector(a, v *Tensor) *Tensor {
	if len(a.shape) != 2 || len(v.shape) != 1 || a.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v and %v incompatible", a.shape, v.shape))
	}
	out := ArenaOf(a, v).New(a.shape...)
	rows, cols := a.shape[0], a.shape[1]
	for r := 0; r < rows; r++ {
		base := r * cols
		for c := 0; c < cols; c++ {
			out.Data[base+c] = a.Data[base+c] + v.Data[c]
		}
	}
	return out
}

// AddChannelVector adds a per-channel vector v (length C) to an NCHW
// tensor. This is the bias-broadcast used by Conv2D layers.
func AddChannelVector(a, v *Tensor) *Tensor {
	if len(a.shape) != 4 || len(v.shape) != 1 || a.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddChannelVector shapes %v and %v incompatible", a.shape, v.shape))
	}
	out := ArenaOf(a, v).New(a.shape...)
	n, c, h, w := a.shape[0], a.shape[1], a.shape[2], a.shape[3]
	plane := h * w
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			base := (i*c + j) * plane
			bias := v.Data[j]
			for k := 0; k < plane; k++ {
				out.Data[base+k] = a.Data[base+k] + bias
			}
		}
	}
	return out
}

// MaxAbs returns the largest absolute element of a (0 for empty tensors).
func MaxAbs(a *Tensor) float64 {
	m := 0.0
	for _, v := range a.Data {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// AllClose reports whether every pair of elements differs by at most tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
