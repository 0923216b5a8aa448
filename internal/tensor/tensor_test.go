package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", x.Rank())
	}
	if got := x.Shape(); got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Shape = %v", got)
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 1, 2)
	if got := x.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %g, want 7.5", got)
	}
	if got := x.Data[1*4+2]; got != 7.5 {
		t.Fatalf("flat layout wrong: %g", got)
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-bounds index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{0, 1, 2, 3, 4, 5}, 6)
	y := x.Reshape(2, 3)
	y.Set(99, 1, 2)
	if x.Data[5] != 99 {
		t.Fatal("Reshape should share data")
	}
	z := x.Reshape(3, -1)
	if z.Dim(1) != 2 {
		t.Fatalf("inferred dim = %d, want 2", z.Dim(1))
	}
	w := x.ReshapeLike(z)
	w.Set(42, 0, 0)
	if !w.SameShape(z) || x.Data[0] != 42 {
		t.Fatalf("ReshapeLike gave shape %v sharing data %v, want %v sharing", w.Shape(), x.Data[0] == 42, z.Shape())
	}
}

func TestReshapeBadVolumePanics(t *testing.T) {
	for _, bad := range []struct {
		name string
		call func()
	}{
		{"Reshape", func() { New(4).Reshape(3) }},
		{"ReshapeLike", func() { New(4).ReshapeLike(New(3)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic on bad %s", bad.name)
				}
			}()
			bad.call()
		}()
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{0, 1, 2, 3}, 4)
	y := x.Clone()
	y.Data[0] = 42
	if x.Data[0] == 42 {
		t.Fatal("Clone should copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b).Data; got[0] != 5 || got[3] != 5 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(a, b).Data; got[0] != -3 || got[3] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Data; got[1] != 6 {
		t.Fatalf("Mul = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Add(New(2), New(3))
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMatMulTransposedVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 0, 1, 4, 5)
	b := Randn(rng, 0, 1, 5, 3)
	want := MatMul(a, b)
	if got := MatMulT(a, Transpose(b)); !AllClose(got, want, 1e-12) {
		t.Fatal("MatMulT(a, bᵀ) != MatMul(a, b)")
	}
	if got := TMatMul(Transpose(a), b); !AllClose(got, want, 1e-12) {
		t.Fatal("TMatMul(aᵀ, b) != MatMul(a, b)")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 0, 1, 3, 7)
	if !AllClose(Transpose(Transpose(a)), a, 0) {
		t.Fatal("double transpose should be identity")
	}
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 0, 5, 6, 10)
	s := SoftmaxRows(a)
	for r := 0; r < 6; r++ {
		sum := 0.0
		for c := 0; c < 10; c++ {
			v := s.At(r, c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %g outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", r, sum)
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 0, 2, 2, 5)
		b := Apply(a, func(x float64) float64 { return x + 37.5 })
		return AllClose(SoftmaxRows(a), SoftmaxRows(b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if Sum(a) != 21 {
		t.Fatalf("Sum = %g", Sum(a))
	}
	sr := SumRows(a)
	if sr.Data[0] != 5 || sr.Data[1] != 7 || sr.Data[2] != 9 {
		t.Fatalf("SumRows = %v", sr.Data)
	}
}

func TestBroadcastAdds(t *testing.T) {
	a := New(2, 3)
	v := FromSlice([]float64{1, 2, 3}, 3)
	out := AddRowVector(a, v)
	if out.At(0, 1) != 2 || out.At(1, 2) != 3 {
		t.Fatalf("AddRowVector = %v", out.Data)
	}
	x := New(1, 2, 2, 2)
	cv := FromSlice([]float64{10, 20}, 2)
	cx := AddChannelVector(x, cv)
	if cx.At(0, 0, 1, 1) != 10 || cx.At(0, 1, 0, 0) != 20 {
		t.Fatalf("AddChannelVector = %v", cx.Data)
	}
	sc := SumChannels(cx)
	if sc.Data[0] != 40 || sc.Data[1] != 80 {
		t.Fatalf("SumChannels = %v", sc.Data)
	}
}

func TestConcatAndSliceRows(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 1, 2)
	b := FromSlice([]float64{3, 4, 5, 6}, 2, 2)
	c := Concat(a, b)
	if c.Dim(0) != 3 || c.At(2, 1) != 6 {
		t.Fatalf("Concat = %v %v", c.Shape(), c.Data)
	}
	s := c.SliceRows(1, 3)
	if s.Dim(0) != 2 || s.At(0, 0) != 3 {
		t.Fatalf("SliceRows = %v", s.Data)
	}
	// A view, like Reshape: a write through either shows in the other,
	// and the view reaches no row past hi.
	s.Set(-3, 0, 0)
	c.Set(-6, 2, 1)
	if c.At(1, 0) != -3 || s.At(1, 1) != -6 {
		t.Fatalf("SliceRows does not share storage: view %v, source %v", s.Data, c.Data)
	}
	if len(s.Data) != 4 || cap(s.Data) != 4 {
		t.Fatalf("SliceRows view holds len %d cap %d, want 4 and 4", len(s.Data), cap(s.Data))
	}
}

func TestApplyFunctions(t *testing.T) {
	a := FromSlice([]float64{-1, 0, 2}, 3)
	r := ReLU(a)
	if r.Data[0] != 0 || r.Data[2] != 2 {
		t.Fatalf("ReLU = %v", r.Data)
	}
	s := Sigmoid(FromSlice([]float64{0}, 1))
	if math.Abs(s.Data[0]-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) = %g", s.Data[0])
	}
}

// TestReLUBits pins ReLU's output bits on the edge values: only x > 0
// passes through, so NaN, −0 and −Inf all come out as +0.
func TestReLUBits(t *testing.T) {
	in := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -1, math.Inf(1), math.Inf(-1)}
	want := []float64{0, 0, 0, 1, 0, math.Inf(1), 0}
	got := ReLU(FromSlice(in, len(in)))
	for i := range in {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want[i]) {
			t.Errorf("ReLU(%v) = %v (bits %#x), want %v", in[i], got.Data[i], math.Float64bits(got.Data[i]), want[i])
		}
	}
}

// reluEdges are the values on which a branch-free ReLU could part from
// the branchy definition: signed zeros, infinities, quiet NaNs of both
// signs, the smallest subnormals and the largest finite values.
var reluEdges = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Copysign(math.NaN(), -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
}

// TestReLUPairMatchesBranchyDefinition holds ReLU and AddReLUGrad to
// the definitions they replace, bit for bit: a zero-filled result that
// takes x where x > 0, and a zero-filled masked copy of g added into
// the gradient. The gradient already holds −0, +0 and finite values,
// and x and g run over every edge value against every other.
func TestReLUPairMatchesBranchyDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs, gs []float64
	for _, x := range reluEdges {
		for _, g := range reluEdges {
			xs, gs = append(xs, x), append(gs, g)
		}
	}
	for range 4000 {
		xs, gs = append(xs, rng.NormFloat64()), append(gs, rng.NormFloat64())
	}
	start := make([]float64, len(xs))
	for i := range start {
		start[i] = []float64{math.Copysign(0, -1), 0, 1.5, -2.25, rng.NormFloat64()}[i%5]
	}
	x, g := FromSlice(xs, len(xs)), FromSlice(gs, len(gs))

	want := NewLike(x)
	for i, v := range x.Data {
		if v > 0 {
			want.Data[i] = v
		}
	}
	got := ReLU(x)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("ReLU(%v) bits %#x, want %#x", xs[i], math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}

	da := NewLike(x)
	for i, v := range x.Data {
		if v > 0 {
			da.Data[i] = g.Data[i]
		}
	}
	wantGrad := FromSlice(append([]float64(nil), start...), len(start))
	AddInPlace(wantGrad, da)
	gotGrad := FromSlice(append([]float64(nil), start...), len(start))
	AddReLUGrad(gotGrad, x, g)
	for i := range wantGrad.Data {
		if math.Float64bits(gotGrad.Data[i]) != math.Float64bits(wantGrad.Data[i]) {
			t.Fatalf("x=%v g=%v into %v: bits %#x, want %#x", xs[i], gs[i], start[i],
				math.Float64bits(gotGrad.Data[i]), math.Float64bits(wantGrad.Data[i]))
		}
	}
}

func TestMaxAbs(t *testing.T) {
	if MaxAbs(FromSlice([]float64{-7, 2}, 2)) != 7 {
		t.Fatal("MaxAbs wrong")
	}
}

// Property: (A·B)·C == A·(B·C) for random small matrices.
func TestMatMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 0, 1, 3, 4)
		b := Randn(rng, 0, 1, 4, 2)
		c := Randn(rng, 0, 1, 2, 5)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return AllClose(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition.
func TestMatMulDistributivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 0, 1, 3, 4)
		b := Randn(rng, 0, 1, 4, 2)
		c := Randn(rng, 0, 1, 4, 2)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return AllClose(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRandnStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := Randn(rng, 2, 3, 10000)
	m := Sum(x) / float64(x.Size())
	if math.Abs(m-2) > 0.15 {
		t.Fatalf("sample mean %g too far from 2", m)
	}
	v := 0.0
	for _, e := range x.Data {
		v += (e - m) * (e - m)
	}
	if v /= float64(x.Size()); math.Abs(v-9) > 0.8 {
		t.Fatalf("sample variance %g too far from 9", v)
	}
}

func TestRandDeterministic(t *testing.T) {
	a := Rand(rand.New(rand.NewSource(7)), 0, 1, 10)
	b := Rand(rand.New(rand.NewSource(7)), 0, 1, 10)
	if !AllClose(a, b, 0) {
		t.Fatal("same seed should give same tensor")
	}
}
