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

// Mean returns the arithmetic mean of all elements.
func Mean(a *Tensor) float64 {
	if len(a.Data) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a.Data))
}

// Max returns the largest element.
func Max(a *Tensor) float64 {
	if len(a.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := a.Data[0]
	for _, v := range a.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest element.
func Min(a *Tensor) float64 {
	if len(a.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := a.Data[0]
	for _, v := range a.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the largest element.
func ArgMax(a *Tensor) int {
	if len(a.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	bi, bv := 0, a.Data[0]
	for i, v := range a.Data {
		if v > bv {
			bv, bi = v, i
		}
	}
	return bi
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

// SumCols sums a 2-D tensor over its columns, returning a vector of length
// rows.
func SumCols(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: SumCols requires 2-D input, got %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := a.arena.New(rows)
	for r := 0; r < rows; r++ {
		base := r * cols
		s := 0.0
		for c := 0; c < cols; c++ {
			s += a.Data[base+c]
		}
		out.Data[r] = s
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

// ArgMaxRows returns, for each row of a 2-D tensor, the column index of its
// largest element.
func ArgMaxRows(a *Tensor) []int {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows requires 2-D input, got %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		base := r * cols
		bi, bv := 0, a.Data[base]
		for c := 1; c < cols; c++ {
			if a.Data[base+c] > bv {
				bv, bi = a.Data[base+c], c
			}
		}
		out[r] = bi
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

// LogSumExpRows returns log(sum(exp(row))) for each row of a 2-D tensor.
func LogSumExpRows(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: LogSumExpRows requires 2-D input, got %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := a.arena.New(rows)
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
			z += math.Exp(a.Data[base+c] - m)
		}
		out.Data[r] = m + math.Log(z)
	}
	return out
}

// MeanRows returns the mean of each row of a 2-D tensor.
func MeanRows(a *Tensor) *Tensor {
	out := SumCols(a)
	ScaleInPlace(out, 1/float64(a.shape[1]))
	return out
}

// Variance returns the population variance of all elements.
func Variance(a *Tensor) float64 {
	if len(a.Data) == 0 {
		return 0
	}
	m := Mean(a)
	s := 0.0
	for _, v := range a.Data {
		d := v - m
		s += d * d
	}
	return s / float64(len(a.Data))
}
