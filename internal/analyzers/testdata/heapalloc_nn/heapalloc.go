// Golden cases for the heapalloc analyzer, checked as aibench/internal/nn:
// a layer's forward pass is an op body like any autograd op, and its
// constructor, with no tensor operand, builds parameters on the heap.
package heapalloc

import (
	"aibench/internal/autograd"
	"aibench/internal/tensor"
)

type layer struct{ w *autograd.Value }

// newLayer is a constructor: no tensor operand, so the heap is the
// right place for the parameters it builds.
func newLayer(d int) *layer {
	return &layer{w: autograd.Var(tensor.Ones(d, d))}
}

// mask builds a per-call constant on the heap instead of beside its
// operand.
func mask(scores *autograd.Value) *autograd.Value {
	m := tensor.New(scores.Data.Dim(0), scores.Data.Dim(1)) // want "heap constructor tensor.New in the body of op mask"
	return autograd.Add(scores, autograd.Const(m))
}

// Forward is a layer's op body: x is its tensor operand.
func (l *layer) Forward(x *autograd.Value) *autograd.Value {
	one := tensor.Ones(x.Data.Shape()...) // want "heap constructor tensor.Ones in the body of op Forward"
	return autograd.Mul(autograd.MatMul(x, l.w), autograd.Const(one))
}

// placed is the fix: the constant comes from the operand's arena.
func placed(x *autograd.Value) *autograd.Value {
	one := tensor.NewLike(x.Data)
	one.Fill(1)
	return autograd.Mul(x, autograd.Const(one))
}
