package heapalloc

import "aibench/internal/tensor"

// Value stands in for autograd.Value: this package is checked as
// aibench/internal/autograd, so it is that type.
type Value struct {
	Data *tensor.Tensor
	back func(n *Value, g *tensor.Tensor)
}

// nodeSlab stands in for the arena's node slab.
type nodeSlab struct{ free []Value }

// take has no tensor operand: handing out nodes is the allocator, not
// an op body.
func (s *nodeSlab) take() *Value {
	if s == nil {
		return new(Value)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// heapNode builds an interior node on the heap instead of taking it
// from its data's arena.
func heapNode(a *Value) *Value {
	out := tensor.NewLike(a.Data)
	return &Value{Data: out} // want "graph node built on the heap in the body of op heapNode"
}

// heapNodeNew is the same bypass through new, inside a backward
// closure.
func heapNodeNew(a *tensor.Tensor) func() *Value {
	return func() *Value {
		n := new(Value) // want "graph node built on the heap in the body of op heapNodeNew"
		n.Data = a
		return n
	}
}

// placedNode is the fix: the node comes from the slab.
func placedNode(s *nodeSlab, a *Value) *Value {
	n := s.take()
	n.Data = tensor.NewLike(a.Data)
	return n
}

// leaf is a documented exception in the style of autograd.Var.
func leaf(t *tensor.Tensor) *Value {
	//lint:allow heapalloc a leaf outlives the step
	return &Value{Data: t}
}

// closureBack attaches its backward as a closure over its operand: a
// heap object per call.
func closureBack(s *nodeSlab, a *Value) *Value {
	n := s.take()
	n.Data = tensor.NewLike(a.Data)
	n.back = func(n *Value, g *tensor.Tensor) { // want "backward closure in the body of op closureBack"
		tensor.AddInPlace(a.Data, g)
	}
	return n
}

// staticBack is the fix: the backward is a top-level function that
// finds its operand in the node.
func staticBack(s *nodeSlab, a *Value) *Value {
	n := s.take()
	n.Data = tensor.NewLike(a.Data)
	n.back = addIntoData
	return n
}

func addIntoData(n *Value, g *tensor.Tensor) { tensor.AddInPlace(n.Data, g) }
