package autograd

import (
	"testing"

	"aibench/internal/tensor"
)

func TestGradGatherCols(t *testing.T) {
	r := rng(101)
	a := tensor.Randn(r, 0, 1, 3, 6)
	idx := []int{5, 0, 2, 2} // includes a repeated column
	checkGrad(t, func(l []*Value) *Value {
		return sum(Tanh(GatherCols(l[0], idx)))
	}, a)
}

func TestGatherColsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range column")
		}
	}()
	GatherCols(Var(tensor.New(2, 3)), []int{3})
}

func TestGradConcatChannels(t *testing.T) {
	r := rng(102)
	a := tensor.Randn(r, 0, 1, 2, 2, 3, 3)
	b := tensor.Randn(r, 0, 1, 2, 1, 3, 3)
	checkGrad(t, func(l []*Value) *Value {
		return sum(Tanh(ConcatChannels(l[0], l[1])))
	}, a, b)
}

func TestConcatChannelsLayout(t *testing.T) {
	a := Var(tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2))
	b := Var(tensor.FromSlice([]float64{5, 6, 7, 8}, 1, 1, 2, 2))
	out := ConcatChannels(a, b)
	if s := out.Shape(); s[1] != 2 {
		t.Fatalf("channels = %d", s[1])
	}
	if out.Data.At(0, 0, 0, 0) != 1 || out.Data.At(0, 1, 0, 0) != 5 {
		t.Fatalf("layout wrong: %v", out.Data.Data)
	}
}

func TestConcatChannelsShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on spatial mismatch")
		}
	}()
	ConcatChannels(Var(tensor.New(1, 1, 2, 2)), Var(tensor.New(1, 1, 3, 3)))
}

func TestGradScaleChain(t *testing.T) {
	// Composition used by REINFORCE: Scale(loss, advantage).
	r := rng(103)
	x := tensor.Randn(r, 0, 1, 2, 4)
	checkGrad(t, func(l []*Value) *Value {
		return Scale(SoftmaxCrossEntropy(l[0], []int{1, 3}), -0.37)
	}, x)
}

func TestGatherRepeatedIDsAccumulate(t *testing.T) {
	// Embedding rows used twice must receive twice the gradient.
	w := Var(tensor.Ones(3, 2))
	out := Gather(w, []int{1, 1})
	sum(out).Backward()
	if w.Grad.At(1, 0) != 2 || w.Grad.At(0, 0) != 0 {
		t.Fatalf("gather grad = %v", w.Grad.Data)
	}
}
