package autograd

import (
	"math"
	"math/rand"
	"testing"

	"aibench/internal/tensor"
)

// numericalGrad estimates d f / d x[i] by central differences, where f
// rebuilds the whole forward computation from the (mutated) leaf tensors.
func numericalGrad(t *testing.T, x *tensor.Tensor, f func() float64) *tensor.Tensor {
	t.Helper()
	const eps = 1e-5
	g := tensor.New(x.Shape()...)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		fp := f()
		x.Data[i] = orig - eps
		fm := f()
		x.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * eps)
	}
	return g
}

// checkGrad compares the autograd gradient of each leaf against numerical
// differentiation of the scalar-valued forward function.
func checkGrad(t *testing.T, forward func(leaves []*Value) *Value, leafTensors ...*tensor.Tensor) {
	t.Helper()
	leaves := make([]*Value, len(leafTensors))
	for i, lt := range leafTensors {
		leaves[i] = Var(lt)
	}
	out := forward(leaves)
	out.Backward()
	for li, leaf := range leaves {
		want := numericalGrad(t, leafTensors[li], func() float64 {
			fresh := make([]*Value, len(leafTensors))
			for i, lt := range leafTensors {
				fresh[i] = Var(lt)
			}
			return forward(fresh).Item()
		})
		got := leaf.Grad
		if got == nil {
			t.Fatalf("leaf %d has nil gradient", li)
		}
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-4*(1+math.Abs(want.Data[i])) {
				t.Fatalf("leaf %d grad[%d]: autograd %g vs numerical %g", li, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// sum reduces v to the scalar the gradchecks differentiate: the sum of
// its elements, built from the ops the models use.
func sum(v *Value) *Value { return Scale(Mean(v), float64(v.Data.Size())) }

// graphSize counts the nodes reachable from v that take part in
// gradient computation, handing every link back as Backward does.
func graphSize(v *Value) int {
	size := 0
	for n := walk(v); n != nil; n = n.unlink() {
		size++
	}
	return size
}

func TestGradAddMulSub(t *testing.T) {
	r := rng(1)
	a := tensor.Randn(r, 0, 1, 3, 4)
	b := tensor.Randn(r, 0, 1, 3, 4)
	checkGrad(t, func(l []*Value) *Value {
		return sum(Mul(Add(l[0], l[1]), Sub(l[0], l[1])))
	}, a, b)
}

func TestGradMatMul(t *testing.T) {
	r := rng(3)
	a := tensor.Randn(r, 0, 1, 3, 4)
	b := tensor.Randn(r, 0, 1, 4, 2)
	checkGrad(t, func(l []*Value) *Value {
		return Mean(MatMul(l[0], l[1]))
	}, a, b)
}

func TestGradActivations(t *testing.T) {
	r := rng(4)
	x := tensor.Randn(r, 0.5, 1, 2, 3) // offset avoids ReLU kinks at 0
	for _, tc := range []struct {
		name string
		f    func(*Value) *Value
	}{
		{"relu", ReLU},
		{"sigmoid", Sigmoid},
		{"tanh", Tanh},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGrad(t, func(l []*Value) *Value { return sum(tc.f(l[0])) }, x.Clone())
		})
	}
}

func TestGradAddRowVector(t *testing.T) {
	r := rng(7)
	a := tensor.Randn(r, 0, 1, 3, 4)
	v := tensor.Randn(r, 0, 1, 4)
	checkGrad(t, func(l []*Value) *Value {
		return sum(Tanh(AddRowVector(l[0], l[1])))
	}, a, v)
}

func TestGradAddChannelVector(t *testing.T) {
	r := rng(8)
	a := tensor.Randn(r, 0, 1, 2, 3, 2, 2)
	v := tensor.Randn(r, 0, 1, 3)
	checkGrad(t, func(l []*Value) *Value {
		return sum(Sigmoid(AddChannelVector(l[0], l[1])))
	}, a, v)
}

func TestGradReshapeTranspose(t *testing.T) {
	r := rng(9)
	a := tensor.Randn(r, 0, 1, 3, 4)
	checkGrad(t, func(l []*Value) *Value {
		return sum(Tanh(Transpose(Reshape(l[0], 4, 3))))
	}, a)
}

func TestGradConcatSlice(t *testing.T) {
	r := rng(10)
	a := tensor.Randn(r, 0, 1, 2, 3)
	b := tensor.Randn(r, 0, 1, 2, 3)
	checkGrad(t, func(l []*Value) *Value {
		cat := Concat(l[0], l[1])
		return sum(Tanh(SliceRows(cat, 1, 3)))
	}, a, b)
}

func TestGradConcatColsSliceCols(t *testing.T) {
	r := rng(11)
	a := tensor.Randn(r, 0, 1, 2, 3)
	b := tensor.Randn(r, 0, 1, 2, 2)
	checkGrad(t, func(l []*Value) *Value {
		cat := ConcatCols(l[0], l[1])
		return sum(Tanh(SliceCols(cat, 1, 4)))
	}, a, b)
}

func TestGradGather(t *testing.T) {
	r := rng(12)
	w := tensor.Randn(r, 0, 1, 5, 3)
	ids := []int{1, 4, 1, 0}
	checkGrad(t, func(l []*Value) *Value {
		return sum(Tanh(Gather(l[0], ids)))
	}, w)
}

func TestGradConv2D(t *testing.T) {
	r := rng(14)
	x := tensor.Randn(r, 0, 1, 2, 2, 5, 5)
	w := tensor.Randn(r, 0, 0.5, 3, 2, 3, 3)
	p := tensor.Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
	checkGrad(t, func(l []*Value) *Value {
		return Mean(Tanh(Conv2D(l[0], l[1], p)))
	}, x, w)
}

func TestGradConv2DStride2(t *testing.T) {
	r := rng(15)
	x := tensor.Randn(r, 0, 1, 1, 2, 6, 6)
	w := tensor.Randn(r, 0, 0.5, 2, 2, 3, 3)
	p := tensor.Conv2DParams{Kernel: 3, Stride: 2, Padding: 1}
	checkGrad(t, func(l []*Value) *Value {
		return Mean(Conv2D(l[0], l[1], p))
	}, x, w)
}

func TestGradPools(t *testing.T) {
	r := rng(16)
	x := tensor.Randn(r, 0, 1, 1, 2, 4, 4)
	p := tensor.Conv2DParams{Kernel: 2, Stride: 2}
	checkGrad(t, func(l []*Value) *Value {
		return sum(AvgPool2D(l[0], p))
	}, x.Clone())
	checkGrad(t, func(l []*Value) *Value {
		return sum(GlobalAvgPool2D(l[0]))
	}, x.Clone())
}

func TestGradUpsample(t *testing.T) {
	r := rng(17)
	x := tensor.Randn(r, 0, 1, 1, 2, 3, 3)
	checkGrad(t, func(l []*Value) *Value {
		return sum(Tanh(UpsampleNearest2D(l[0], 2)))
	}, x)
}

func TestGradSoftmaxRows(t *testing.T) {
	r := rng(18)
	x := tensor.Randn(r, 0, 1, 3, 5)
	// Weight rows to make the test sensitive to off-diagonal Jacobian terms.
	wts := tensor.Randn(r, 0, 1, 3, 5)
	checkGrad(t, func(l []*Value) *Value {
		return sum(Mul(SoftmaxRows(l[0]), Const(wts)))
	}, x)
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	r := rng(19)
	x := tensor.Randn(r, 0, 1, 4, 6)
	labels := []int{2, 0, 5, 3}
	checkGrad(t, func(l []*Value) *Value {
		return SoftmaxCrossEntropy(l[0], labels)
	}, x)
}

func TestGradMaskedSoftmaxCrossEntropy(t *testing.T) {
	r := rng(20)
	x := tensor.Randn(r, 0, 1, 4, 6)
	labels := []int{2, -1, 5, -1}
	checkGrad(t, func(l []*Value) *Value {
		return MaskedSoftmaxCrossEntropy(l[0], labels)
	}, x)
}

func TestGradMSEAndL1AndBCE(t *testing.T) {
	r := rng(21)
	x := tensor.Randn(r, 0.2, 1, 3, 3)
	target := tensor.Randn(r, 0, 1, 3, 3)
	checkGrad(t, func(l []*Value) *Value { return MSELoss(l[0], target) }, x.Clone())
	checkGrad(t, func(l []*Value) *Value { return L1Loss(l[0], target) }, x.Clone())
	bt := tensor.Rand(r, 0, 1, 3, 3)
	checkGrad(t, func(l []*Value) *Value { return BCEWithLogits(l[0], bt) }, x.Clone())
}

func TestGradTripletLoss(t *testing.T) {
	r := rng(22)
	a := tensor.Randn(r, 0, 1, 3, 4)
	p := tensor.Randn(r, 0, 1, 3, 4)
	n := tensor.Randn(r, 2, 1, 3, 4)
	checkGrad(t, func(l []*Value) *Value {
		return TripletLoss(l[0], l[1], l[2], 0.5)
	}, a, p, n)
}

func TestGradBatchNorm2D(t *testing.T) {
	r := rng(23)
	x := tensor.Randn(r, 0, 1, 2, 3, 2, 2)
	gamma := tensor.Rand(r, 0.5, 1.5, 3)
	beta := tensor.Randn(r, 0, 0.5, 3)
	checkGrad(t, func(l []*Value) *Value {
		out, _, _ := BatchNorm2D(l[0], l[1], l[2], 1e-5)
		return sum(Tanh(out))
	}, x, gamma, beta)
}

func TestGradBatchNormInference(t *testing.T) {
	r := rng(24)
	x := tensor.Randn(r, 0, 1, 2, 3, 2, 2)
	gamma := tensor.Rand(r, 0.5, 1.5, 3)
	beta := tensor.Randn(r, 0, 0.5, 3)
	rm := tensor.Randn(r, 0, 0.3, 3)
	rv := tensor.Rand(r, 0.5, 1.5, 3)
	checkGrad(t, func(l []*Value) *Value {
		return sum(Tanh(BatchNorm2DInference(l[0], Const(gamma), Const(beta), rm, rv, 1e-5)))
	}, x)
}

func TestGradLayerNorm(t *testing.T) {
	r := rng(25)
	x := tensor.Randn(r, 0, 1, 3, 5)
	gamma := tensor.Rand(r, 0.5, 1.5, 5)
	beta := tensor.Randn(r, 0, 0.5, 5)
	checkGrad(t, func(l []*Value) *Value {
		return sum(Tanh(LayerNorm(l[0], l[1], l[2], 1e-5)))
	}, x, gamma, beta)
}

func TestGradAffineGridAndGridSample(t *testing.T) {
	r := rng(26)
	x := tensor.Randn(r, 0, 1, 1, 2, 5, 5)
	// Near-identity transform keeps samples strictly inside the image so
	// the bilinear surface is smooth at the test point.
	theta := tensor.FromSlice([]float64{0.9, 0.05, 0.02, -0.03, 0.85, -0.01}, 1, 6)
	checkGrad(t, func(l []*Value) *Value {
		grid := AffineGrid(l[1], 4, 4)
		return sum(Tanh(GridSample(l[0], grid, 4, 4)))
	}, x, theta)
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	Var(tensor.New(2, 2)).Backward()
}

func TestGradAccumulatesAcrossUses(t *testing.T) {
	// d/dx (x + x) = 2 everywhere: reuse of the same node must accumulate.
	x := Var(tensor.FromSlice([]float64{3}, 1))
	out := Add(x, x)
	out.Backward()
	if x.Grad.Data[0] != 2 {
		t.Fatalf("grad = %g, want 2", x.Grad.Data[0])
	}
}

func TestConstGetsNoGrad(t *testing.T) {
	c := Const(tensor.FromSlice([]float64{1, 2}, 2))
	x := Var(tensor.FromSlice([]float64{3, 4}, 2))
	sum(Mul(c, x)).Backward()
	if c.Grad != nil {
		t.Fatal("const should not accumulate gradient")
	}
	if x.Grad == nil || x.Grad.Data[0] != 1 || x.Grad.Data[1] != 2 {
		t.Fatalf("x grad = %v", x.Grad)
	}
}

func TestDeepGraphNoStackOverflow(t *testing.T) {
	// A 10k-deep chain exercises the iterative topological sort the way a
	// long unrolled RNN would.
	x := Var(tensor.FromSlice([]float64{1}, 1))
	v := x
	for i := 0; i < 10000; i++ {
		v = Scale(v, 1)
	}
	v.Backward()
	if x.Grad.Data[0] != 1 {
		t.Fatalf("grad = %g, want 1", x.Grad.Data[0])
	}
	if graphSize(v) < 10000 {
		t.Fatalf("graph size = %d", graphSize(v))
	}
}
