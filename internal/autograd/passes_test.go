package autograd

import (
	"math"
	"math/rand"
	"testing"

	"aibench/internal/tensor"
)

// sameBits fails t unless got and want hold the same bits everywhere.
func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v (bits %#x), want %v (bits %#x)", what, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestReLUBackAddsInPlace holds reluBack to the definition it replaces
// — a zero-filled masked copy of the upstream gradient, added into the
// parent's — over signed zeros, infinities, NaNs and N(0,1) draws, into
// a gradient that already holds −0, +0 and finite values. A parent
// that needs no gradient gets none, and costs nothing.
func TestReLUBackAddsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Copysign(math.NaN(), -1), math.SmallestNonzeroFloat64, -math.MaxFloat64}
	for len(xs) < 2000 {
		xs = append(xs, rng.NormFloat64())
	}
	n := len(xs)
	g := tensor.Randn(rng, 0, 1, n)
	g.Data[0], g.Data[1], g.Data[2] = math.Copysign(0, -1), math.Inf(-1), math.NaN()
	start := tensor.New(n)
	for i := range start.Data {
		start.Data[i] = []float64{math.Copysign(0, -1), 0, 0.75, rng.NormFloat64()}[i%4]
	}

	want := start.Detach()
	da := tensor.New(n)
	for i, x := range xs {
		if x > 0 {
			da.Data[i] = g.Data[i]
		}
	}
	tensor.AddInPlace(want, da)

	x := Var(tensor.FromSlice(xs, n))
	y := ReLU(x)
	copy(x.EnsureGrad().Data, start.Data)
	reluBack(y, g)
	sameBits(t, "ReLU gradient", x.Grad, want)

	frozen := Var(tensor.FromSlice(xs, n))
	y = ReLU(frozen)
	frozen.SetRequiresGrad(false)
	if allocs := testing.AllocsPerRun(10, func() { reluBack(y, g) }); allocs != 0 {
		t.Errorf("reluBack into a parent that needs no gradient makes %v mallocs, want 0", allocs)
	}
	if frozen.Grad != nil {
		t.Error("a parent that needs no gradient got a gradient buffer")
	}
}

// TestBatchNormBackMatchesBufferedDefinition holds batchNorm2DBack to
// the definition it replaces: per-channel sums accumulated in
// zero-filled buffers image by image, and the input gradient built in
// a buffer of its own and then added into x's, which already holds a
// gradient from another consumer.
func TestBatchNormBackMatchesBufferedDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, c, h, w = 3, 4, 5, 5
	x := Var(tensor.Randn(rng, 0.3, 1.7, n, c, h, w))
	gamma := Var(tensor.Rand(rng, 0.5, 1.5, c))
	beta := Var(tensor.Randn(rng, 0, 0.5, c))
	g := tensor.Randn(rng, 0, 1, n, c, h, w)
	prior := tensor.Randn(rng, 0, 1, n, c, h, w)
	prior.Data[0] = math.Copysign(0, -1)

	out, _, _ := BatchNorm2D(x, gamma, beta, 1e-5)
	xhat, invStd := out.saved[0], out.saved[1]
	plane, m := h*w, float64(n*h*w)
	sumDy, sumDyXhat := tensor.New(c), tensor.New(c)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * plane
			for k := 0; k < plane; k++ {
				sumDy.Data[ch] += g.Data[base+k]
				sumDyXhat.Data[ch] += g.Data[base+k] * xhat.Data[base+k]
			}
		}
	}
	gx := tensor.New(n, c, h, w)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * plane
			ga, is := gamma.Data.Data[ch], invStd.Data[ch]
			for k := 0; k < plane; k++ {
				gx.Data[base+k] = ga * is / m * (m*g.Data[base+k] - sumDy.Data[ch] - xhat.Data[base+k]*sumDyXhat.Data[ch])
			}
		}
	}
	wantX := prior.Detach()
	tensor.AddInPlace(wantX, gx)

	copy(x.EnsureGrad().Data, prior.Data)
	batchNorm2DBack(out, g)
	sameBits(t, "x gradient", x.Grad, wantX)
	sameBits(t, "gamma gradient", gamma.Grad, sumDyXhat)
	sameBits(t, "beta gradient", beta.Grad, sumDy)
}

// TestFirstGradientIsZeroPlusG holds an interior node's first gradient
// to the definition it replaces — g added into a zero-filled buffer —
// over signed zeros, infinities, NaNs and N(0,1) draws, on an arena
// whose memory a previous step left NaN-poisoned: a −0 must come out
// +0, and an element left unwritten keeps its NaN. The second gradient
// adds into the first.
func TestFirstGradientIsZeroPlusG(t *testing.T) {
	defer tensor.SetArenaResetMode(tensor.SetArenaResetMode(tensor.ResetPoison))
	rng := rand.New(rand.NewSource(19))
	gs := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.MaxFloat64}
	for len(gs) < 300 {
		gs = append(gs, rng.NormFloat64())
	}
	n := len(gs)
	g := tensor.FromSlice(gs, n)
	want := tensor.New(n)
	tensor.AddInPlace(want, g)

	var ar tensor.Arena
	ar.New(1 << 12).Fill(7)
	ar.Reset()
	xa := tensor.Randn(rng, 0, 1, n)
	ar.Adopt(xa)
	node := Add(Var(xa), Const(tensor.Randn(rng, 0, 1, n)))
	node.accumGrad(g)
	if tensor.ArenaOf(node.Grad) != &ar {
		t.Fatal("the first gradient is not placed like the node's data")
	}
	sameBits(t, "first gradient", node.Grad, want)
	node.accumGrad(g)
	tensor.AddInPlace(want, g)
	sameBits(t, "second gradient", node.Grad, want)
}

// TestNoFillOutputsAreWrittenInFull runs every op whose result skips
// the zero fill (Arena.Take) on an arena whose memory a previous step
// left dirty — poisoned with NaN by Reset — and requires each to come
// out bitwise equal to the same op on a fresh arena. An element an op
// leaves unwritten keeps its NaN and fails here.
func TestNoFillOutputsAreWrittenInFull(t *testing.T) {
	defer tensor.SetArenaResetMode(tensor.SetArenaResetMode(tensor.ResetPoison))
	rng := rand.New(rand.NewSource(17))
	const n, c, h, w = 2, 3, 4, 5
	x := tensor.Randn(rng, 0, 1, n, c, h, w)
	y := tensor.Randn(rng, 0, 1, n, c, h, w)
	gamma := tensor.Rand(rng, 0.5, 1.5, c)
	beta := tensor.Randn(rng, 0, 0.5, c)
	runMean := tensor.Randn(rng, 0, 0.3, c)
	runVar := tensor.Rand(rng, 0.5, 1.5, c)
	// A convolution with 15 output pixels and 5 output channels: its
	// last pixel pair and its last channel panel are edge tiles.
	xc := tensor.Randn(rng, 0, 1, n, c, 3, 5)
	wc := tensor.Randn(rng, 0, 0.5, 5, c, 3, 3)

	// Each op returns the tensors it built without a zero fill. Its
	// operands are adopted into the arena, so its results land there.
	ops := []struct {
		name string
		run  func(a *tensor.Arena) []*tensor.Tensor
	}{
		{"ReLU", func(a *tensor.Arena) []*tensor.Tensor {
			xa := x.Detach()
			a.Adopt(xa)
			return []*tensor.Tensor{tensor.ReLU(xa)}
		}},
		{"Add", func(a *tensor.Arena) []*tensor.Tensor {
			xa := x.Detach()
			a.Adopt(xa)
			return []*tensor.Tensor{tensor.Add(xa, y)}
		}},
		{"BatchNorm2D", func(a *tensor.Arena) []*tensor.Tensor {
			ga := gamma.Detach()
			a.Adopt(ga)
			out, _, _ := BatchNorm2D(Const(x), Var(ga), Const(beta), 1e-5)
			return []*tensor.Tensor{out.saved[0], out.Data}
		}},
		{"first gradient", func(a *tensor.Arena) []*tensor.Tensor {
			xa := x.Detach()
			a.Adopt(xa)
			node := Add(Var(xa), Const(y))
			node.accumGrad(y)
			return []*tensor.Tensor{node.Grad}
		}},
		{"Conv2D", func(a *tensor.Arena) []*tensor.Tensor {
			xa := xc.Detach()
			a.Adopt(xa)
			return []*tensor.Tensor{tensor.Conv2D(xa, wc, tensor.Conv2DParams{Kernel: 3, Stride: 1, Padding: 1})}
		}},
		{"BatchNorm2DInference", func(a *tensor.Arena) []*tensor.Tensor {
			ga := gamma.Detach()
			a.Adopt(ga)
			return []*tensor.Tensor{BatchNorm2DInference(Const(x), Const(ga), Const(beta), runMean, runVar, 1e-5).Data}
		}},
	}
	for _, op := range ops {
		var fresh tensor.Arena
		want := op.run(&fresh)

		var dirty tensor.Arena
		step := dirty.New(1 << 14)
		step.Fill(7)
		dirty.Reset()
		got := op.run(&dirty)
		for i := range want {
			if tensor.ArenaOf(got[i]) != &dirty {
				t.Fatalf("%s: result %d is not placed in the dirtied arena", op.name, i)
			}
			sameBits(t, op.name, got[i], want[i])
		}
	}
}

// BenchmarkConvBlock is one conv block of DC-AI-C1's step at
// 16×8×8×8: Conv2D → BatchNorm2D → ReLU forward and backward on an
// arena reset each step, as the benchmark runs it. The conv kernels
// fork; the batch norm and ReLU passes between them are serial.
func BenchmarkConvBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := tensor.Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
	x := tensor.Randn(rng, 0, 1, 16, 8, 8, 8)
	weight := Var(tensor.Randn(rng, 0, 0.1, 8, 8, 3, 3))
	gamma := Var(tensor.Rand(rng, 0.5, 1.5, 8))
	beta := Var(tensor.Randn(rng, 0, 0.1, 8))
	var arena tensor.Arena
	arena.Adopt(weight.Data, gamma.Data, beta.Data)
	params := []*Value{weight, gamma, beta}
	b.ReportAllocs()
	for b.Loop() {
		arena.Reset()
		for _, v := range params {
			v.ZeroGrad()
		}
		h, _, _ := BatchNorm2D(Conv2D(Const(x), weight, p), gamma, beta, 1e-5)
		Mean(ReLU(h)).Backward()
	}
}
