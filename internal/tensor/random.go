package tensor

import (
	"math"
	"math/rand"
)

// Rand fills a new tensor with uniform samples in [lo, hi).
func Rand(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*rng.Float64()
	}
	return t
}

// Randn fills a new tensor with normal samples N(mean, std²).
func Randn(rng *rand.Rand, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = mean + std*rng.NormFloat64()
	}
	return t
}

// XavierUniform initializes with the Glorot uniform scheme given fan-in and
// fan-out.
func XavierUniform(rng *rand.Rand, fanIn, fanOut int, shape ...int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return Rand(rng, -limit, limit, shape...)
}

// KaimingNormal initializes with the He normal scheme given fan-in, suited
// to ReLU networks.
func KaimingNormal(rng *rand.Rand, fanIn int, shape ...int) *Tensor {
	std := math.Sqrt(2.0 / float64(fanIn))
	return Randn(rng, 0, std, shape...)
}
