package tensor

import (
	"fmt"
	"math"
)

// Sum returns the sum of all elements.
func Sum(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	return s
}

// SumRows sums a 2-D tensor over its rows, returning a vector of length
// cols. This is the adjoint of AddRowVector.
func SumRows(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRows requires 2-D input, got %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := a.arena.New(cols)
	for r := 0; r < rows; r++ {
		base := r * cols
		for c := 0; c < cols; c++ {
			out.Data[c] += a.Data[base+c]
		}
	}
	return out
}

// SumChannels sums an NCHW tensor over batch and spatial dims, returning a
// per-channel vector of length C. This is the adjoint of AddChannelVector.
func SumChannels(a *Tensor) *Tensor {
	if len(a.shape) != 4 {
		panic(fmt.Sprintf("tensor: SumChannels requires NCHW input, got %v", a.shape))
	}
	n, c, h, w := a.shape[0], a.shape[1], a.shape[2], a.shape[3]
	plane := h * w
	out := a.arena.New(c)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * plane
			s := 0.0
			for k := 0; k < plane; k++ {
				s += a.Data[base+k]
			}
			out.Data[ch] += s
		}
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax to each row of a 2-D
// tensor.
func SoftmaxRows(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows requires 2-D input, got %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := NewLike(a)
	for r := 0; r < rows; r++ {
		base := r * cols
		m := a.Data[base]
		for c := 1; c < cols; c++ {
			if a.Data[base+c] > m {
				m = a.Data[base+c]
			}
		}
		z := 0.0
		for c := 0; c < cols; c++ {
			e := math.Exp(a.Data[base+c] - m)
			out.Data[base+c] = e
			z += e
		}
		for c := 0; c < cols; c++ {
			out.Data[base+c] /= z
		}
	}
	return out
}
