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
// heap for its graph nodes only — per op a Value, a parents slice and a
// backward closure — and for no tensor at all: not a forward result, not
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
	const ops = 9 // 3 matmul, 3 addrow, 2 relu, mse
	if got := testing.AllocsPerRun(50, step); got > 3*ops+1 {
		t.Errorf("a warmed adopted MLP step makes %v mallocs, want ≤ %d (3 per op + the Const input)", got, 3*ops+1)
	}
}

// TestBackwardLeavesNoTraversalState: walk threads its stack and its
// result through the nodes; Backward and GraphSize must hand every
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
	if got := GraphSize(loss); got != 6+6+4 {
		t.Fatalf("GraphSize = %d, want 16 (6 params, 6 affine nodes, mse, mul, mean, add)", got)
	}
	if got := GraphSize(loss); got != 16 {
		t.Fatalf("second GraphSize = %d, want 16", got)
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
