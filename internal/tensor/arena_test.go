package tensor

import (
	"math"
	"testing"

	"aibench/internal/telemetry"
)

// adopted returns a heap tensor of the given shape filled with a
// deterministic ramp and placed in a.
func adopted(a *Arena, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float64(i%7) - 3
	}
	a.Adopt(t)
	return t
}

func TestArenaZeroUntilUsedThenSteady(t *testing.T) {
	var a Arena
	if len(a.floats.list)+len(a.ints.list)+len(a.tensors.list) != 0 {
		t.Fatal("a zero Arena holds slabs")
	}
	a.Adopt(New(3, 3)) // adoption alone must not allocate a slab either
	a.Reset()
	if len(a.floats.list) != 0 {
		t.Fatal("Adopt or Reset allocated a slab")
	}
	step := func() {
		a.Reset()
		x := a.New(32, 32)
		y := a.New(5)
		x.Reshape(16, -1).SliceRows(3, 4).Clone()
		Add(y, y)
	}
	step()
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Fatalf("a warmed arena step makes %v mallocs, want 0", got)
	}
}

func TestArenaHandsOutZeroedDisjointMemory(t *testing.T) {
	var a Arena
	for round := 0; round < 3; round++ {
		a.Reset()
		var all []*Tensor
		for _, n := range []int{1, 7, arenaFloats - 3, 40, 3 * arenaFloats, 2} {
			x := a.New(n)
			for i, v := range x.Data {
				if v != 0 {
					t.Fatalf("round %d: element %d of a fresh %d-tensor is %v", round, i, n, v)
				}
			}
			if len(x.Data) != n || cap(x.Data) != n || x.Dim(0) != n || x.strides[0] != 1 {
				t.Fatalf("round %d: bad tensor for n=%d: len %d cap %d shape %v", round, n, len(x.Data), cap(x.Data), x.shape)
			}
			all = append(all, x)
		}
		// Dirty everything, then check nothing overlaps.
		for k, x := range all {
			x.Fill(float64(k + 1))
		}
		for k, x := range all {
			for _, v := range x.Data {
				if v != float64(k+1) {
					t.Fatalf("round %d: tensor %d was overwritten by another (%v)", round, k, v)
				}
			}
		}
	}
}

func TestArenaGrowthIsDeterministic(t *testing.T) {
	sizes := func() []int {
		var a Arena
		for s := 0; s < 4; s++ {
			a.Reset()
			for _, n := range []int{100, arenaFloats, 10, 5 * arenaFloats, 300} {
				a.New(n)
			}
		}
		var out []int
		for _, s := range a.floats.list {
			out = append(out, len(s))
		}
		return out
	}
	want := sizes()
	for i := 1; i < len(want); i++ {
		if want[i] < 2*want[i-1] {
			t.Fatalf("slab %d (%d floats) is not at least double slab %d (%d)", i, want[i], i-1, want[i-1])
		}
	}
	for r := 0; r < 3; r++ {
		got := sizes()
		if len(got) != len(want) {
			t.Fatalf("slab list %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("slab list %v, want %v", got, want)
			}
		}
	}
}

// TestPlacementIsInherited runs every result-allocating op family once
// with an adopted operand and once without: the results must be placed
// in the arena in the first case — whichever operand carries it, and
// handed out by it (StepArenaOf) — and on the heap in the second, with
// identical numbers.
func TestPlacementIsInherited(t *testing.T) {
	var a Arena
	p := Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
	pool := Conv2DParams{Kernel: 2, Stride: 2}
	type operands struct{ m, m2, v, img, w, g *Tensor }
	build := func(ar *Arena) operands {
		mk := func(shape ...int) *Tensor {
			if ar != nil {
				return adopted(ar, shape...)
			}
			return adopted(new(Arena), shape...).Detach()
		}
		return operands{
			m: mk(4, 6), m2: mk(4, 6), v: mk(6),
			img: mk(2, 3, 4, 4), w: mk(5, 3, 3, 3), g: mk(2, 5, 4, 4),
		}
	}
	ops := map[string]func(o operands) []*Tensor{
		"elementwise": func(o operands) []*Tensor {
			return []*Tensor{Add(o.m, o.m2), Sub(o.m, o.m2), Mul(o.m, o.m2),
				Scale(o.m, 2), Neg(o.m), Tanh(o.m), ReLU(o.m), Sigmoid(o.m)}
		},
		"broadcast": func(o operands) []*Tensor {
			return []*Tensor{AddRowVector(o.m, o.v), AddChannelVector(o.img, New(3))}
		},
		"reduce": func(o operands) []*Tensor {
			return []*Tensor{SumRows(o.m), SumChannels(o.img), SoftmaxRows(o.m)}
		},
		"linalg": func(o operands) []*Tensor {
			return []*Tensor{MatMul(o.m, Transpose(o.m2)), MatMulT(o.m, o.m2), TMatMul(o.m, o.m2), Transpose(o.m)}
		},
		"conv": func(o operands) []*Tensor {
			dx, dw := Conv2DBackward(o.img, o.w, o.g, p, true, true)
			return []*Tensor{Conv2D(o.img, o.w, p), dx, dw, AvgPool2D(o.img, pool), GlobalAvgPool2D(o.img), UpsampleNearest2D(o.img, 2)}
		},
		"structure": func(o operands) []*Tensor {
			return []*Tensor{o.m.Clone(), o.m.Reshape(6, -1), o.m.SliceRows(1, 3), Concat(o.m, o.m2), NewLike(o.m)}
		},
	}
	for _, kernel := range KernelNames() {
		k, _ := LookupKernels(kernel)
		counters := new(telemetry.Counters)
		a.SetRun(&Run{Kernels: k, Counters: counters})
		for name, run := range ops {
			a.Reset()
			placed, heap := run(build(&a)), run(build(nil))
			for i := range placed {
				if got := ArenaOf(placed[i]); got != &a {
					t.Errorf("%s/%s: result %d of adopted operands has placement %p, want the arena", kernel, name, i, got)
				}
				if got := ArenaOf(heap[i]); got != nil {
					t.Errorf("%s/%s: result %d of heap operands is placed in an arena", kernel, name, i)
				}
				if StepArenaOf(placed[i]) != &a || StepArenaOf(heap[i]) != nil {
					t.Errorf("%s/%s: result %d: StepArenaOf does not name the arena that handed it out", kernel, name, i)
				}
				if !placed[i].SameShape(heap[i]) {
					t.Fatalf("%s/%s: result %d shapes %v vs %v", kernel, name, i, placed[i].shape, heap[i].shape)
				}
				for j := range placed[i].Data {
					if math.Float64bits(placed[i].Data[j]) != math.Float64bits(heap[i].Data[j]) {
						t.Fatalf("%s/%s: result %d element %d differs between arena and heap", kernel, name, i, j)
					}
				}
			}
		}
		// Placement is also whose trace an op shows up in: the placed
		// half of "linalg" (3 calls) and "conv" (3) counted into the
		// arena's run, the heap half into nobody's.
		var calls int64
		for _, op := range counters.Snapshot().Kernel {
			calls += op.Calls
		}
		if calls != 6 {
			t.Errorf("%s: the arena's run counted %d kernel calls, want the 6 its placed operands made", kernel, calls)
		}
	}
	// One placed operand is enough, on either side.
	a.Reset()
	heapM := adopted(new(Arena), 4, 6).Detach()
	if ArenaOf(Add(heapM, adopted(&a, 4, 6))) != &a || ArenaOf(MatMulT(adopted(&a, 4, 6), heapM)) != &a {
		t.Error("a result did not take the placement of its one adopted operand")
	}
	// Operand-less constructors and Detach are heap, always.
	if ArenaOf(New(2), Ones(2), Full(3, 2), FromSlice([]float64{1}, 1), adopted(&a, 2).Detach()) != nil {
		t.Error("a heap constructor returned a placed tensor")
	}
	// An adopted tensor is placed in the arena but outlives its steps.
	if StepArenaOf(adopted(&a, 2)) != nil {
		t.Error("an adopted tensor counts as handed out by the arena")
	}
}

// TestArenaResetModes pins the escape-safety hook itself: poisoning
// must make a stale tensor unusable, and ResetNever must leave it
// intact and never hand its memory out again.
func TestArenaResetModes(t *testing.T) {
	defer SetArenaResetMode(SetArenaResetMode(ResetPoison))
	var a Arena
	stale := a.New(8)
	data := stale.Data
	data[3] = 5
	a.Reset()
	if stale.Data != nil || stale.shape != nil || ArenaOf(stale) != nil {
		t.Errorf("poisoned reset left the Tensor struct intact: %+v", stale)
	}
	for i, v := range data {
		if !math.IsNaN(v) {
			t.Fatalf("poisoned reset left element %d = %v", i, v)
		}
	}
	fresh := a.New(8)
	if &fresh.Data[0] != &data[0] {
		t.Error("the rewound memory was not handed out again")
	}
	for i, v := range fresh.Data {
		if v != 0 {
			t.Fatalf("re-issued element %d = %v, want 0", i, v)
		}
	}

	SetArenaResetMode(ResetNever)
	kept := a.New(8)
	kept.Data[0] = 9
	a.Reset()
	again := a.New(8)
	if kept.Data[0] != 9 || &again.Data[0] == &kept.Data[0] {
		t.Error("ResetNever reused or clobbered memory")
	}
}

func TestAtSetDoNotAllocate(t *testing.T) {
	x := New(3, 4, 5)
	s := 0.0
	if got := testing.AllocsPerRun(100, func() {
		x.Set(2, 1, 2, 3)
		s += x.At(1, 2, 3) + x.At(0, 0, 0)
	}); got != 0 {
		t.Fatalf("At/Set make %v mallocs per call group, want 0 (the index slice must not escape)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds At did not panic")
		}
	}()
	x.At(1, 4, 0)
}

// TestSmallGEMMBuildsNoClosures pins the serial fast path: below the
// parallel threshold a product allocates its result and nothing else
// (on the heap: data, shape+strides, struct; in an arena: nothing).
func TestSmallGEMMBuildsNoClosures(t *testing.T) {
	var ar Arena
	k, _ := LookupKernels("blocked")
	a, b := adopted(&ar, 8, 8), adopted(&ar, 8, 8)
	ha, hb := a.Detach(), b.Detach()
	k.MatMul(a, b) // warm the scratch free lists and the slabs
	if got := testing.AllocsPerRun(50, func() { k.MatMul(ha, hb); k.MatMulT(ha, hb); k.TMatMul(ha, hb) }); got != 9 {
		t.Errorf("three small heap GEMMs make %v mallocs, want 9 (3 per result)", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		ar.Reset()
		k.MatMul(a, b)
		k.MatMulT(a, b)
		k.TMatMul(a, b)
	}); got != 0 {
		t.Errorf("three small arena GEMMs make %v mallocs, want 0", got)
	}
}
