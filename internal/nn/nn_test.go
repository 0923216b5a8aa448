package nn

import (
	"math"
	"math/rand"
	"testing"

	"aibench/internal/autograd"
	"aibench/internal/tensor"
)

func TestLinearShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	x := autograd.Const(tensor.Randn(rng, 0, 1, 2, 4))
	y := l.Forward(x)
	if s := y.Shape(); s[0] != 2 || s[1] != 3 {
		t.Fatalf("shape = %v", s)
	}
	n := 0
	for _, p := range l.Params() {
		n += p.Value.Data.Size()
	}
	if n != 4*3+3 {
		t.Fatalf("%d parameters, want 15", n)
	}
}

func TestSequentialComposesAndCollectsParams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewSequential(NewLinear(rng, 4, 8), ReLU{}, NewLinear(rng, 8, 2))
	x := autograd.Const(tensor.Randn(rng, 0, 1, 3, 4))
	y := m.Forward(x)
	if s := y.Shape(); s[0] != 3 || s[1] != 2 {
		t.Fatalf("shape = %v", s)
	}
	if len(m.Params()) != 4 {
		t.Fatalf("params = %d, want 4", len(m.Params()))
	}
}

func TestConv2DLayerShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(rng, 3, 8, 3, 2, 1)
	x := autograd.Const(tensor.Randn(rng, 0, 1, 2, 3, 8, 8))
	y := c.Forward(x)
	if s := y.Shape(); s[0] != 2 || s[1] != 8 || s[2] != 4 || s[3] != 4 {
		t.Fatalf("shape = %v", s)
	}
}

func TestConvNoBiasHasOneParam(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2DNoBias(rng, 3, 8, 3, 1, 1)
	if len(c.Params()) != 1 {
		t.Fatalf("params = %d, want 1", len(c.Params()))
	}
}

func TestBatchNormTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm2D(4)
	x := autograd.Const(tensor.Randn(rng, 3, 2, 4, 4, 3, 3))
	out := bn.Forward(x)
	// Training-mode output should be roughly standardized per channel.
	m := tensor.Sum(out.Data) / float64(out.Data.Size())
	if math.Abs(m) > 0.2 {
		t.Fatalf("normalized mean = %g, want ~0", m)
	}
	// Running stats should have moved toward the batch stats.
	if bn.RunMean.Data[0] == 0 {
		t.Fatal("running mean not updated")
	}
	bn.SetTraining(false)
	out2 := bn.Forward(x)
	if out2.Shape()[1] != 4 {
		t.Fatalf("eval shape = %v", out2.Shape())
	}
}

func TestEmbeddingLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEmbedding(rng, 10, 4)
	out := e.Lookup([]int{1, 1, 3})
	if s := out.Shape(); s[0] != 3 || s[1] != 4 {
		t.Fatalf("shape = %v", s)
	}
	for j := 0; j < 4; j++ {
		if out.Data.At(0, j) != out.Data.At(1, j) {
			t.Fatal("same id should give identical rows")
		}
	}
}

func TestLSTMShapesAndGradientFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cell := NewLSTMCell(rng, 3, 5)
	xs := []*autograd.Value{
		autograd.Const(tensor.Randn(rng, 0, 1, 2, 3)),
		autograd.Const(tensor.Randn(rng, 0, 1, 2, 3)),
		autograd.Const(tensor.Randn(rng, 0, 1, 2, 3)),
	}
	h, c := cell.InitState(2)
	for _, x := range xs {
		h, c = cell.Step(x, h, c)
	}
	if s := h.Shape(); s[0] != 2 || s[1] != 5 {
		t.Fatalf("shape = %v", s)
	}
	autograd.Mean(h).Backward()
	for _, p := range cell.Params() {
		if p.Value.Grad == nil || tensor.MaxAbs(p.Value.Grad) == 0 {
			t.Fatalf("param %s received no gradient", p.Name)
		}
	}
}

func TestLSTMForgetGateBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cell := NewLSTMCell(rng, 3, 4)
	b := cell.B.Value.Data
	for i := 0; i < 4; i++ {
		if b.Data[i] != 0 {
			t.Fatal("input gate bias should start at 0")
		}
		if b.Data[4+i] != 1 {
			t.Fatal("forget gate bias should start at 1")
		}
	}
}

func TestGRUShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cell := NewGRUCell(rng, 3, 6)
	x := autograd.Const(tensor.Randn(rng, 0, 1, 2, 3))
	h := cell.Step(x, cell.InitState(2))
	if s := h.Shape(); s[0] != 2 || s[1] != 6 {
		t.Fatalf("shape = %v", s)
	}
}

func TestAttentionShapeAndCausality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	attn := NewMultiHeadAttention(rng, 8, 2)
	x := tensor.Randn(rng, 0, 1, 4, 8)
	out := attn.Attend(autograd.Const(x), autograd.Const(x), true)
	if s := out.Shape(); s[0] != 4 || s[1] != 8 {
		t.Fatalf("shape = %v", s)
	}
	// Causality: changing a future token must not affect earlier outputs.
	x2 := x.Clone()
	for j := 0; j < 8; j++ {
		x2.Set(99, 3, j)
	}
	out2 := attn.Attend(autograd.Const(x2), autograd.Const(x2), true)
	for i := 0; i < 3; i++ {
		for j := 0; j < 8; j++ {
			if math.Abs(out.Data.At(i, j)-out2.Data.At(i, j)) > 1e-9 {
				t.Fatalf("causal mask leaked: row %d changed", i)
			}
		}
	}
}

func TestTransformerBlockShapeAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	blk := NewTransformerBlock(rng, 8, 16, 2, false)
	x := autograd.Const(tensor.Randn(rng, 0, 1, 5, 8))
	y := blk.Forward(x)
	if s := y.Shape(); s[0] != 5 || s[1] != 8 {
		t.Fatalf("shape = %v", s)
	}
	if len(blk.Params()) != 4+2+2+2+2 {
		t.Fatalf("params = %d", len(blk.Params()))
	}
}

func TestPositionalEncodingRange(t *testing.T) {
	pe := PositionalEncoding(16, 8)
	if pe.Dim(0) != 16 || pe.Dim(1) != 8 {
		t.Fatalf("shape = %v", pe.Shape())
	}
	for _, v := range pe.Data {
		if v < -1 || v > 1 {
			t.Fatalf("PE value %g outside [-1,1]", v)
		}
	}
	if pe.At(0, 0) != 0 || pe.At(0, 1) != 1 {
		t.Fatalf("PE row 0 should be sin(0)=0, cos(0)=1: %g %g", pe.At(0, 0), pe.At(0, 1))
	}
}

func TestLayerNormLayerNormalizesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ln := NewLayerNorm(6)
	x := autograd.Const(tensor.Randn(rng, 5, 3, 4, 6))
	y := ln.Forward(x)
	for r := 0; r < 4; r++ {
		row := y.Data.SliceRows(r, r+1)
		if m := tensor.Sum(row) / 6; math.Abs(m) > 1e-6 {
			t.Fatalf("row %d mean = %g", r, m)
		}
	}
}
