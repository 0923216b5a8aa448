// Golden cases for the heapalloc analyzer, checked as
// aibench/internal/data: a function with a *tensor.Arena parameter is a
// draw, and takes its tensors from that arena; a generator's
// constructor has none and builds its state on the heap.
package heapalloc

import (
	"math/rand"

	"aibench/internal/tensor"
)

type gen struct {
	proto *tensor.Tensor
	rng   *rand.Rand
}

// newGen is a constructor: no arena parameter, so its heap prototype is
// out of scope.
func newGen(rng *rand.Rand) *gen {
	return &gen{proto: tensor.Randn(rng, 0, 1, 4), rng: rng}
}

// batch ignores its arena for a heap batch of heap rows.
func (g *gen) batch(a *tensor.Arena, n int) *tensor.Tensor {
	rows := make([]*tensor.Tensor, n)
	for i := range rows {
		rows[i] = tensor.New(1, 4) // want "heap constructor tensor.New in the body of draw batch"
	}
	return tensor.Concat(rows...) // want "heap constructor tensor.Concat in the body of draw batch"
}

// noise and the other heap constructors are flagged as well.
func (g *gen) noise(a *tensor.Arena, n int) []*tensor.Tensor {
	return []*tensor.Tensor{
		tensor.Randn(g.rng, 0, 1, n, 4),         // want "heap constructor tensor.Randn in the body of draw noise"
		tensor.Full(1, n),                       // want "heap constructor tensor.Full in the body of draw noise"
		tensor.Ones(n),                          // want "heap constructor tensor.Ones in the body of draw noise"
		tensor.FromSlice(make([]float64, n), n), // want "heap constructor tensor.FromSlice in the body of draw noise"
	}
}

// placed is the fix: the rows are written in place into tensors the
// arena hands out, and a view over storage the draw already holds is
// no allocation.
func (g *gen) placed(a *tensor.Arena, n int) (*tensor.Tensor, *tensor.Tensor) {
	x := a.Take(n, 4)
	for i := range x.Data {
		x.Data[i] = g.proto.Data[i%4] + g.rng.NormFloat64()
	}
	mask := a.New(n, 4)
	mask.Data[0] = 1
	return x, tensor.FromSlice(x.Data[:4], 1, 4)
}
