package autograd

import (
	"math"
	"math/rand"
	"testing"

	"aibench/internal/tensor"
)

// mlpStep builds a 3-layer MLP regression step over the given
// parameters: forward, MSE, backward. It returns the loss.
func mlpStep(params []*Value, x, target *tensor.Tensor) float64 {
	h := Const(x)
	for l := 0; l < len(params); l += 2 {
		h = AddRowVector(MatMul(h, params[l]), params[l+1])
		if l+2 < len(params) {
			h = ReLU(h)
		}
	}
	loss := MSELoss(h, target)
	loss.Backward()
	return loss.Item()
}

func mlpParams(rng *rand.Rand) []*Value {
	var ps []*Value
	for _, d := range [][2]int{{6, 16}, {16, 16}, {16, 3}} {
		ps = append(ps, Var(tensor.Randn(rng, 0, 0.3, d[0], d[1])), Var(tensor.Randn(rng, 0, 0.1, d[1])))
	}
	return ps
}

// TestAdoptedGraphSteadyStateAllocs pins the placement rule end to end
// in autograd: a warmed training step over adopted parameters asks the
// heap for at most one object, the Const node over its input — not a
// node (the arena's node slab holds them, parents inline), not a
// backward (each is a top-level function), not a forward result, not
// an interior Grad, not a backward temporary, not Backward's seed or
// its traversal. Leaf gradients are heap tensors, allocated once.
func TestAdoptedGraphSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := mlpParams(rng)
	x, target := tensor.Randn(rng, 0, 1, 8, 6), tensor.Randn(rng, 0, 1, 8, 3)

	heapLoss := mlpStep(params, x, target) // bare graph: all on the heap
	heapGrads := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		heapGrads[i] = p.Grad.Detach()
		p.ZeroGrad()
	}

	var arena tensor.Arena
	for _, p := range params {
		arena.Adopt(p.Data)
	}
	step := func() {
		arena.Reset()
		for _, p := range params {
			p.ZeroGrad()
		}
		mlpStep(params, x, target)
	}
	step()
	for i, p := range params {
		if tensor.ArenaOf(p.Grad) != nil {
			t.Errorf("parameter %d: leaf gradient is arena-placed", i)
		}
		for j := range p.Grad.Data {
			if math.Float64bits(p.Grad.Data[j]) != math.Float64bits(heapGrads[i].Data[j]) {
				t.Fatalf("parameter %d: gradient differs between arena and heap graphs", i)
			}
		}
	}
	if got := mlpStep(params, x, target); math.Float64bits(got) != math.Float64bits(heapLoss) {
		t.Fatalf("loss %v on the arena, %v on the heap", got, heapLoss)
	}
	if got := testing.AllocsPerRun(50, step); got > 1 {
		t.Errorf("a warmed adopted MLP step makes %v mallocs, want ≤ 1 (the Const input)", got)
	}
}

// sink keeps the nodes TestNodeAllocs builds alive past the compiler.
var sink *Value

// TestNodeAllocs pins what a graph node costs the heap when its tensors
// come from an arena: nothing. The Value comes from the arena's node
// slab, up to three parents live inline in it, its backward is a
// top-level function and what that function needs beyond the operands
// and the output sits in the node's save area, so a node costs the
// heap nothing whether a gradient can flow through it or not, as in
// evaluation. The table holds every op train-smallop's models run.
func TestNodeAllocs(t *testing.T) {
	r := rng(9)
	var arena tensor.Arena
	leaf := func(grad bool, shape ...int) *Value {
		x := tensor.Randn(r, 0, 1, shape...)
		arena.Adopt(x)
		if grad {
			return Var(x)
		}
		return Const(x)
	}
	target := tensor.Randn(r, 0, 1, 4, 5)
	arena.Adopt(target)
	ids, labels := []int{3, 0, 3}, []int{1, 4, 0, 2}
	unary := func(f func(*Value) *Value) func(grad bool) func() *Value {
		return func(grad bool) func() *Value {
			a := leaf(grad, 4, 5)
			return func() *Value { return f(a) }
		}
	}
	binary := func(f func(a, b *Value) *Value) func(grad bool) func() *Value {
		return func(grad bool) func() *Value {
			a, b := leaf(grad, 4, 5), leaf(grad, 4, 5)
			return func() *Value { return f(a, b) }
		}
	}
	ops := []struct {
		name  string
		build func(grad bool) func() *Value
	}{
		{"Add", binary(Add)},
		{"Sub", binary(Sub)},
		{"Mul", binary(Mul)},
		{"MatMulT", binary(MatMulT)},
		{"MatMul", func(grad bool) func() *Value {
			a, b := leaf(grad, 4, 5), leaf(grad, 5, 3)
			return func() *Value { return MatMul(a, b) }
		}},
		{"AddRowVector", func(grad bool) func() *Value {
			a, v := leaf(grad, 4, 5), leaf(grad, 5)
			return func() *Value { return AddRowVector(a, v) }
		}},
		{"ConcatCols", func(grad bool) func() *Value {
			a, b, c := leaf(grad, 4, 5), leaf(grad, 4, 2), leaf(grad, 4, 3)
			return func() *Value { return ConcatCols(a, b, c) }
		}},
		{"Scale", unary(func(a *Value) *Value { return Scale(a, 0.5) })},
		{"ReLU", unary(ReLU)},
		{"SoftmaxRows", unary(SoftmaxRows)},
		{"SliceCols", unary(func(a *Value) *Value { return SliceCols(a, 1, 4) })},
		{"Gather", unary(func(a *Value) *Value { return Gather(a, ids) })},
		{"SoftmaxCrossEntropy", unary(func(a *Value) *Value { return SoftmaxCrossEntropy(a, labels) })},
		{"MSELoss", unary(func(a *Value) *Value { return MSELoss(a, target) })},
		{"BCEWithLogits", unary(func(a *Value) *Value { return BCEWithLogits(a, target) })},
		{"LayerNorm", func(grad bool) func() *Value {
			x, gamma, beta := leaf(grad, 4, 5), leaf(grad, 5), leaf(grad, 5)
			return func() *Value { return LayerNorm(x, gamma, beta, 1e-5) }
		}},
		{"BatchNorm2D", func(grad bool) func() *Value {
			x, gamma, beta := leaf(grad, 2, 3, 2, 2), leaf(grad, 3), leaf(grad, 3)
			return func() *Value {
				out, _, _ := BatchNorm2D(x, gamma, beta, 1e-5)
				return out
			}
		}},
	}
	for _, op := range ops {
		for _, grad := range []bool{true, false} {
			call := op.build(grad)
			n := call()
			if grad != n.requiresGrad || grad != (n.back != nil) || grad != (n.parents != nil) {
				t.Errorf("%s (operands require grad: %v): node requiresGrad %v, back set %v, parents %d",
					op.name, grad, n.requiresGrad, n.back != nil, len(n.parents))
			}
			got := testing.AllocsPerRun(100, func() {
				arena.Reset()
				sink = call()
			})
			if got != 0 {
				t.Errorf("%s (operands require grad: %v): %v heap objects per node, want 0", op.name, grad, got)
			}
		}
	}
	sink = nil
}

// TestNodesDieAtReset pins the node slab's lifetime: an interior node
// is cleared by the Reset that ends its step, under the production
// rewind and the poisoning one alike, so a node kept past its step
// reads a nil Data and an empty save area; leaves built on adopted tensors are heap nodes and
// keep theirs; a node over heap data is a heap node; and a warmed step
// takes its nodes from the slabs it already has.
func TestNodesDieAtReset(t *testing.T) {
	defer tensor.SetArenaResetMode(tensor.SetArenaResetMode(tensor.ResetRewind))
	for _, mode := range []tensor.ArenaResetMode{tensor.ResetRewind, tensor.ResetPoison} {
		tensor.SetArenaResetMode(mode)
		var arena tensor.Arena
		r := rng(4)
		w, x := tensor.Randn(r, 0, 1, 3, 3), tensor.Randn(r, 0, 1, 2, 3)
		arena.Adopt(w, x)
		param, input := Var(w), Const(x)
		kept := ReLU(MatMul(input, param))
		if kept.Data == nil || tensor.ArenaOf(kept.Data) != &arena {
			t.Fatalf("mode %d: interior node not built on the arena", mode)
		}
		// Nodes that fill every scalar and slice of the save area.
		savers := []*Value{
			SoftmaxCrossEntropy(kept, []int{0, 2}),
			Scale(kept, 0.5),
			SliceCols(kept, 1, 3),
			Conv2D(Reshape(kept, 1, 1, 2, 3), Reshape(SliceCols(kept, 0, 2), 1, 1, 2, 2), tensor.Conv2DParams{Kernel: 2, Stride: 1}),
		}
		for i, v := range savers {
			if savedZero(v) {
				t.Fatalf("mode %d: saver %d saved nothing", mode, i)
			}
		}
		arena.Reset()
		if kept.Data != nil || kept.requiresGrad || kept.back != nil || kept.parents != nil {
			t.Errorf("mode %d: a node kept past Reset still holds its step (Data %v)", mode, kept.Data)
		}
		for i, v := range savers {
			if !savedZero(v) {
				t.Errorf("mode %d: saver %d kept its save area past Reset", mode, i)
			}
		}
		if param.Data != w || !param.requiresGrad || input.Data != x {
			t.Errorf("mode %d: a leaf lost its tensor at Reset", mode)
		}
		if heap := MatMul(Const(x.Detach()), Const(w.Detach())); tensor.ArenaOf(heap.Data) != nil || arena.Graph().(*nodes).off != 0 {
			t.Errorf("mode %d: a node over heap data was taken from the arena", mode)
		}

		step := func() {
			arena.Reset()
			param.ZeroGrad()
			h := input
			for range 300 { // more nodes than the first slab holds
				h = Tanh(MatMul(h, param))
			}
			Mean(h).Backward()
		}
		step()
		slabs := len(arena.Graph().(*nodes).list)
		if slabs < 2 {
			t.Fatalf("mode %d: the step's nodes fit one slab; the test must outgrow it", mode)
		}
		for range 3 {
			step()
		}
		if got := len(arena.Graph().(*nodes).list); got != slabs {
			t.Errorf("mode %d: a warmed step grew the node slabs from %d to %d", mode, slabs, got)
		}
	}
}

// savedZero reports whether v's save area is empty.
func savedZero(v *Value) bool {
	return v.saved == [2]*tensor.Tensor{} && v.ints == nil && v.off == 0 && v.alpha == 0 &&
		v.conv == tensor.Conv2DParams{}
}

// TestBackwardLeavesNoTraversalState: walk threads its stack and its
// result through the nodes; Backward and graphSize must hand every
// link back, so a parameter never keeps the last graph reachable and
// consecutive sorts over shared nodes see a clean slate.
func TestBackwardLeavesNoTraversalState(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	params := mlpParams(rng)
	x, target := tensor.Randn(rng, 0, 1, 4, 6), tensor.Randn(rng, 0, 1, 4, 3)
	h := Const(x)
	for l := 0; l < len(params); l += 2 {
		h = AddRowVector(MatMul(h, params[l]), params[l+1])
	}
	// A diamond: h feeds the loss twice.
	loss := Add(MSELoss(h, target), Mean(Mul(h, h)))
	if got := graphSize(loss); got != 6+6+4 {
		t.Fatalf("graphSize = %d, want 16 (6 params, 6 affine nodes, mse, mul, mean, add)", got)
	}
	if got := graphSize(loss); got != 16 {
		t.Fatalf("second graphSize = %d, want 16", got)
	}
	loss.Backward()
	for i, p := range params {
		if p.link != nil {
			t.Errorf("parameter %d still links into the sorted graph", i)
		}
		if p.Grad == nil {
			t.Errorf("parameter %d got no gradient", i)
		}
	}
	if loss.link != nil || h.link != nil {
		t.Error("interior nodes still linked after Backward")
	}
}
