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
// its backward closure, the Grad buffer of an interior node — is
// allocated where the op's operands are placed, through tensor.ArenaOf /
// tensor.NewLike, never through a heap constructor (aibench-lint's
// heapalloc analyzer holds the line). A graph built on a benchmark's
// adopted parameters therefore lives in that benchmark's step arena and
// is dead once the owner calls Reset at the top of its next optimizer
// step; a graph with no adopted operand (gradient checks, the bench's
// bare-graph probe) is on the heap as it always was. The one exception
// is the Grad buffer of a leaf: parameters' gradients are read by the
// optimizer and by internal/dist's all-reduce after the step's graph is
// gone, so leaves accumulate into heap buffers. The Value nodes
// themselves and their closures stay ordinary heap objects: a node no
// gradient can flow through (every operand gradient-free, as in
// evaluation, where models.Evaluate marks the parameters so) is one
// heap object with neither parents nor a closure, and a node a gradient
// can flow through is two — it keeps up to two parents in its own
// inline array.
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
	// leaf and on a node no gradient can flow through. Up to two of
	// them live in inline, so recording them allocates nothing.
	parents []*Value
	inline  [2]*Value
	// back propagates this node's gradient into its parents. It must
	// accumulate (+=) into parent gradients, never overwrite.
	back func(grad *tensor.Tensor)

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
	return &Value{Data: t, requiresGrad: true}
}

// Const wraps a tensor as a non-differentiable graph leaf.
func Const(t *tensor.Tensor) *Value {
	return &Value{Data: t}
}

// RequiresGrad reports whether gradients flow into v.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// SetRequiresGrad marks the leaf v as carrying a gradient or not. Ops
// read the mark when they build a node, so it decides whether the
// nodes built from v from now on record parents and a backward closure:
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

// accumGrad adds g into v's gradient buffer, allocating it on first use.
func (v *Value) accumGrad(g *tensor.Tensor) {
	if !v.requiresGrad {
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
// only then does the op attach back:
//
//	node := newNode(out, a, b)
//	if node.requiresGrad {
//		node.back = func(g *tensor.Tensor) { … }
//	}
//	return node
//
// so a node no gradient can reach allocates no closure. Two parents fit
// in the node's inline array; more are copied to a slice of their own.
func newNode(data *tensor.Tensor, operands ...*Value) *Value {
	n := &Value{Data: data}
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
			n.back(n.Grad)
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
