// Package autograd implements tape-based reverse-mode automatic
// differentiation over the tensor package. Each operation builds a node in
// a dynamic computation graph; calling Backward on a scalar output
// topologically sorts the graph and propagates gradients to every Value
// that requires them.
//
// The design mirrors how define-by-run frameworks (PyTorch) execute the
// AIBench workloads: the graph is rebuilt on every forward pass, so
// recurrent and data-dependent control flow works naturally.
//
// Allocation follows the tensor package's placement rule (tensor.Arena):
// every tensor an op produces — its forward result, the temporaries of
// its backward, the Grad buffer of an interior node — is
// allocated where the op's operands are placed, through tensor.ArenaOf /
// tensor.NewLike, never through a heap constructor (aibench-lint's
// heapalloc analyzer holds the line). A graph built on a benchmark's
// adopted parameters therefore lives in that benchmark's step arena and
// is dead once the owner calls Reset at the top of its next optimizer
// step; a graph with no adopted operand (gradient checks, the bench's
// bare-graph probe) is on the heap as it always was. The one exception
// is the Grad buffer of a leaf: parameters' gradients are read by the
// optimizer and by internal/dist's all-reduce after the step's graph is
// gone, so leaves accumulate into heap buffers.
//
// The interior Value nodes follow the same rule: a node is taken from
// the node slab of the arena its data is placed in (the arena's graph
// state, rewound by its Reset), so it dies at the same Reset as the
// tensors it holds, and a node over heap data is a heap object. A
// rewind clears the nodes it takes back, so a node kept past its step
// reads a nil Data. A Const over a tensor an arena handed out (a
// mask, a position table, a ones column built for the step) is such a
// node too: it dies with its tensor. The other leaves are heap
// objects: a Var, and a Const over heap or adopted storage, may
// outlive every step — a parameter's node does.
//
// An op's backward is a top-level function, not a closure: it reads the
// operands from the node's parents, the op's output from its Data, and
// anything else the op saved (a normalized input, softmax
// probabilities, labels, a slice offset, convolution parameters) from a
// small save area in the node itself. Attaching it allocates nothing,
// so a node over arena data costs the heap nothing, whether or not a
// gradient flows through it; only an op of more than three parents
// (Concat or ConcatCols over more) copies them to a slice of its own.
package autograd

import (
	"fmt"
	"sync/atomic"

	"aibench/internal/tensor"
)

// Value is a node in the computation graph: a tensor plus the bookkeeping
// needed to differentiate through the operation that produced it.
type Value struct {
	Data *tensor.Tensor
	Grad *tensor.Tensor
	// parents are the operands a gradient flows back into; nil on a
	// leaf and on a node no gradient can flow through. Up to three of
	// them live in inline, so recording them allocates nothing.
	parents []*Value
	inline  [3]*Value
	// back propagates g, this node's gradient, into n's parents. It is
	// a top-level function of the op that built n, so attaching it
	// allocates nothing. It must accumulate (+=) into parent gradients,
	// never overwrite.
	back func(n *Value, g *tensor.Tensor)

	// The save area: what back needs beyond n's parents and n.Data —
	// anything that follows from their shapes is recomputed instead.
	// saved holds up to two tensors placed like the op's, ints the
	// op's index argument (labels, ids, columns), off a slice's first
	// row or column, alpha Scale's factor and conv a convolution's or
	// pooling's parameters. A rewind clears the save area with the
	// rest of the node.
	saved [2]*tensor.Tensor
	ints  []int
	off   int
	alpha float64
	conv  tensor.Conv2DParams

	// Traversal state of the sort that last reached this node (walk):
	// its stamp, how many parents it has expanded, and the link that
	// threads the node first onto the DFS stack and then onto the
	// ordered list — so a Backward allocates nothing to find its way.
	stamp uint64
	link  *Value
	next  int32

	requiresGrad bool
}

// Var wraps a tensor as a differentiable graph leaf (a trainable
// parameter or an input we want gradients for).
func Var(t *tensor.Tensor) *Value {
	//lint:allow heapalloc a leaf outlives the step: a parameter's node is built once
	return &Value{Data: t, requiresGrad: true}
}

// Const wraps a tensor as a non-differentiable graph leaf. Over a
// tensor an arena handed out (tensor.StepArenaOf) the node comes from
// that arena's node slab, like an interior node's, and dies at the same
// Reset as its tensor; over heap or adopted storage, which may outlive
// the step, it is a heap object, like Var's.
func Const(t *tensor.Tensor) *Value {
	if a := tensor.StepArenaOf(t); a != nil {
		n := nodesOf(a).take()
		n.Data = t
		return n
	}
	//lint:allow heapalloc a leaf over heap or adopted storage may outlive the step, like Var's
	return &Value{Data: t}
}

// RequiresGrad reports whether gradients flow into v.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// SetRequiresGrad marks the leaf v as carrying a gradient or not. Ops
// read the mark when they build a node, so it decides whether the
// nodes built from v from now on record parents and a backward:
// models.Evaluate clears it on a benchmark's parameters for the length
// of an evaluation, which builds no backward graph.
func (v *Value) SetRequiresGrad(on bool) { v.requiresGrad = on }

// Shape returns the shape of the underlying tensor.
func (v *Value) Shape() []int { return v.Data.Shape() }

// Item returns the single element of a scalar Value.
func (v *Value) Item() float64 {
	if v.Data.Size() != 1 {
		panic(fmt.Sprintf("autograd: Item on non-scalar value of shape %v", v.Data.Shape()))
	}
	return v.Data.Data[0]
}

// ZeroGrad clears the accumulated gradient.
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// EnsureGrad returns v's gradient buffer, allocating a zero-filled one
// of the data's shape on first use. It lets external training engines
// (internal/dist's all-reduce installs combined gradients before the
// optimizer step) write gradients without reaching into backward-pass
// internals. A leaf's buffer outlives every step, so it is built on the
// heap whatever the leaf's placement; an interior node's buffer dies
// with its graph and is placed like its data. (A node no gradient flows
// through records no parents, so it counts as a leaf here; nothing
// asks it for a gradient.)
func (v *Value) EnsureGrad() *tensor.Tensor {
	if v.Grad == nil {
		if v.parents == nil {
			//lint:allow heapalloc a leaf gradient is read after the step's arena is reset
			v.Grad = tensor.New(v.Data.Shape()...)
		} else {
			v.Grad = tensor.NewLike(v.Data)
		}
	}
	return v.Grad
}

// accumGrad adds g into v's gradient buffer, allocating it on first
// use. An interior node's first gradient is 0 + g written into a buffer
// with no zero fill (tensor.ZeroPlus), the bits of adding g to zeros;
// a leaf's buffer comes from EnsureGrad.
func (v *Value) accumGrad(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil && v.parents != nil {
		v.Grad = tensor.ZeroPlus(v.Data, g)
		return
	}
	tensor.AddInPlace(v.EnsureGrad(), g)
}

// scalar returns the one-element tensor [v], placed like its operand.
func scalar(like *tensor.Tensor, v float64) *tensor.Tensor {
	t := tensor.ArenaOf(like).New(1)
	t.Data[0] = v
	return t
}

// filled returns a tensor shaped and placed like its operand with every
// element set to v.
func filled(like *tensor.Tensor, v float64) *tensor.Tensor {
	t := tensor.NewLike(like)
	t.Fill(v)
	return t
}

// newNode builds the interior node holding data, which an op computed
// from operands. A gradient flows through it when one of the operands
// requires one; only then does the node record them as its parents, and
// only then does the op attach its backward and fill the save area:
//
//	node := newNode(out, a, b)
//	if node.requiresGrad {
//		node.back = fooBack // func fooBack(n *Value, g *tensor.Tensor)
//		node.saved[0] = …
//	}
//	return node
//
// The node is placed like data (nodesOf), zeroed. Three parents fit in
// its inline array; more are copied to a slice of their own.
func newNode(data *tensor.Tensor, operands ...*Value) *Value {
	n := nodesOf(tensor.ArenaOf(data)).take()
	n.Data = data
	for _, p := range operands {
		if p.requiresGrad {
			n.requiresGrad = true
			break
		}
	}
	if !n.requiresGrad {
		return n
	}
	if len(operands) <= len(n.inline) {
		n.parents = n.inline[:copy(n.inline[:], operands)]
	} else {
		n.parents = append([]*Value(nil), operands...)
	}
	return n
}

// nodes is an arena's graph state: a slab list of Values handed out
// one at a time, the slab after the last twice its size, so after the
// first step of a fixed-shape loop it grows no more. Slabs never move,
// so a node's address is stable for its step.
type nodes struct {
	list     [][]Value
	cur, off int
}

// firstNodes is the first slab's length, the arena's tensor slab's.
const firstNodes = 1 << 8

// nodesOf returns the node slab of arena a, creating it on first use;
// nil (the heap) for a nil arena.
func nodesOf(a *tensor.Arena) *nodes {
	if a == nil {
		return nil
	}
	s, _ := a.Graph().(*nodes)
	if s == nil {
		s = new(nodes)
		a.SetGraph(s)
	}
	return s
}

// take hands out a zero node; on a nil slab it is a heap object.
func (s *nodes) take() *Value {
	if s == nil {
		return new(Value)
	}
	for s.cur < len(s.list) && s.off == len(s.list[s.cur]) {
		s.cur, s.off = s.cur+1, 0
	}
	if s.cur == len(s.list) {
		size := firstNodes
		if len(s.list) > 0 {
			size = 2 * len(s.list[len(s.list)-1])
		}
		s.list = append(s.list, make([]Value, size))
	}
	s.off++
	return &s.list[s.cur][s.off-1]
}

// Rewind clears every node handed out since the last rewind — its
// parents, backward and save area alike, so the collector can have
// what they referenced — and makes them available again
// (tensor.Rewinder).
func (s *nodes) Rewind() {
	for i := range s.cur { // slabs before cur are used up
		clear(s.list[i])
	}
	if s.cur < len(s.list) {
		clear(s.list[s.cur][:s.off])
	}
	s.cur, s.off = 0, 0
}

// Backward runs reverse-mode differentiation from v, which must be a
// scalar. Gradients accumulate into every reachable Value with
// requiresGrad set.
func (v *Value) Backward() {
	if v.Data.Size() != 1 {
		panic(fmt.Sprintf("autograd: Backward requires a scalar output, got shape %v", v.Data.Shape()))
	}
	v.BackwardWith(filled(v.Data, 1))
}

// BackwardWith runs reverse-mode differentiation seeding v's gradient with
// the given tensor (vector-Jacobian product).
func (v *Value) BackwardWith(seed *tensor.Tensor) {
	if !v.Data.SameShape(seed) {
		panic(fmt.Sprintf("autograd: seed shape %v != value shape %v", seed.Shape(), v.Data.Shape()))
	}
	order := walk(v)
	v.accumGrad(seed)
	for n := order; n != nil; n = n.unlink() {
		if n.back != nil && n.Grad != nil {
			n.back(n, n.Grad)
		}
	}
}

// unlink takes v off the sorted list and returns its successor. Both
// consumers of walk unlink as they go: a parameter must not keep the
// last graph reachable through its traversal link.
func (v *Value) unlink() *Value {
	next := v.link
	v.link = nil
	return next
}

// walks numbers the sorts of the process, so a node's stamp tells
// whether the current one has reached it; a counter shared by every
// goroutine only has to hand out distinct numbers.
var walks atomic.Uint64

// walk sorts the gradient-carrying nodes reachable from root and
// returns them as a list threaded through their link fields, children
// before parents — the order Backward visits them in, root first.
// Iterative DFS so deep recurrent graphs do not overflow the goroutine
// stack; the stack, the visited set and the result all live in the
// nodes' own traversal fields.
func walk(root *Value) *Value {
	stamp := walks.Add(1)
	root.stamp, root.next, root.link = stamp, 0, nil
	var order *Value
	for top := root; top != nil; {
		if int(top.next) < len(top.parents) {
			p := top.parents[top.next]
			top.next++
			if p.stamp != stamp && p.requiresGrad {
				p.stamp, p.next, p.link = stamp, 0, top
				top = p
			}
			continue
		}
		// Every parent of top is sorted: pop it off the stack and push
		// it onto the front of the list.
		done := top
		top = done.link
		done.link, order = order, done
	}
	return order
}
