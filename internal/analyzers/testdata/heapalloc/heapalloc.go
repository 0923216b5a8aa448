// Golden cases for the heapalloc analyzer, checked as
// aibench/internal/autograd: op bodies over real tensor.Tensor values.
package heapalloc

import "aibench/internal/tensor"

// heapResult is the bypass: an op whose result ignores where its
// operand is placed.
func heapResult(a *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(a.Shape()...) // want "heap constructor tensor.New in the body of op heapResult"
	copy(out.Data, a.Data)
	return out
}

// heapInClosure allocates its backward temporaries on the heap: the
// closure is part of the op body.
func heapInClosure(a *tensor.Tensor) func(g *tensor.Tensor) *tensor.Tensor {
	return func(g *tensor.Tensor) *tensor.Tensor {
		da := tensor.Ones(a.Shape()...) // want "heap constructor tensor.Ones in the body of op heapInClosure"
		return tensor.Mul(da, g)
	}
}

// heapFull and the fresh-storage FromSlice forms are heap constructors
// too; a variadic operand list is an operand.
func heapScalar(ts ...*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{
		tensor.Full(2, 1),                       // want "heap constructor tensor.Full in the body of op heapScalar"
		tensor.FromSlice([]float64{1}, 1),       // want "heap constructor tensor.FromSlice in the body of op heapScalar"
		tensor.FromSlice(make([]float64, 4), 4), // want "heap constructor tensor.FromSlice in the body of op heapScalar"
	}
}

// placed is the fix the diagnostic recommends.
func placed(a, b *tensor.Tensor) *tensor.Tensor {
	out := tensor.ArenaOf(a, b).New(a.Dim(0), b.Dim(1))
	tmp := tensor.NewLike(a)
	copy(tmp.Data, a.Data)
	return out
}

// view wraps storage that already exists: FromSlice over it allocates
// no data and is not flagged.
func view(a *tensor.Tensor) *tensor.Tensor {
	return tensor.FromSlice(a.Data[:a.Dim(1)], a.Dim(1))
}

// constructor has no tensor operand: there is no placement to inherit,
// so building on the heap is the point.
func constructor(rows, cols int) *tensor.Tensor {
	return tensor.New(rows, cols)
}

// outlives is a documented exception in the style of Value.EnsureGrad.
func outlives(a *tensor.Tensor) *tensor.Tensor {
	//lint:allow heapalloc the copy must survive the arena's next reset
	return tensor.New(a.Shape()...)
}
