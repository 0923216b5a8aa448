package tensor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func kernelPair(t *testing.T) (naive, blocked Kernels) {
	t.Helper()
	n, ok := LookupKernels("naive")
	if !ok {
		t.Fatal("naive kernel not registered")
	}
	b, ok := LookupKernels("blocked")
	if !ok {
		t.Fatal("blocked kernel not registered")
	}
	return n, b
}

// optimizedKernels returns every kernel except the naive oracle, so
// equivalence sweeps automatically cover new tiers.
func optimizedKernels(t *testing.T) []Kernels {
	t.Helper()
	var out []Kernels
	for _, name := range KernelNames() {
		if name == "naive" {
			continue
		}
		k, ok := LookupKernels(name)
		if !ok {
			t.Fatalf("%s kernel not registered", name)
		}
		out = append(out, k)
	}
	return out
}

func TestKernelRegistryAndSelection(t *testing.T) {
	names := KernelNames()
	if !slices.Equal(names, []string{"blocked", "naive"}) {
		t.Fatalf("KernelNames = %v, want [blocked naive]", names)
	}
	if got := RunFrom(context.Background()).Kernels.Name(); got != DefaultKernel || DefaultKernel != "blocked" {
		t.Fatalf("unplaced operands dispatch to %q, want the default %q = blocked", got, DefaultKernel)
	}
	for _, name := range names {
		if k, ok := LookupKernels(name); !ok || k.Name() != name {
			t.Fatalf("LookupKernels(%q) = %v, %v", name, k, ok)
		}
	}
	for _, name := range []string{"no-such-kernel", "tuned", ""} {
		if _, ok := LookupKernels(name); ok {
			t.Fatalf("LookupKernels found %q", name)
		}
	}
}

func maxAbsDiff(a, b *Tensor) float64 {
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// oddShapes is the m×k×n table the equivalence tests share: degenerate
// 1×1, panel-edge cases where m/n are not multiples of the micro-tile,
// and sizes big enough to cross the parallel threshold.
var oddShapes = [][3]int{
	{1, 1, 1}, {3, 129, 63}, {255, 257, 63}, {64, 64, 64},
	{5, 1, 7}, {1, 513, 1}, {31, 2, 129}, {4, 4, 4}, {65, 63, 66},
}

// TestCrossKernelEquivalence runs every dispatchable op under every
// optimized kernel (blocked, future tiers) across odd and prime
// shapes — degenerate 1×1, panel-edge cases where m/n are not
// multiples of the micro-tile, and sizes big enough to cross the
// parallel threshold — and demands agreement with the naive oracle
// within 1e-9.
func TestCrossKernelEquivalence(t *testing.T) {
	naive, _ := kernelPair(t)
	rng := rand.New(rand.NewSource(99))
	for _, dims := range oddShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		bt := Randn(rng, 0, 1, n, k)
		at := Randn(rng, 0, 1, k, m)
		for _, kern := range optimizedKernels(t) {
			cases := []struct {
				op   string
				got  *Tensor
				want *Tensor
			}{
				{"MatMul", kern.MatMul(a, b), naive.MatMul(a, b)},
				{"MatMulT", kern.MatMulT(a, bt), naive.MatMulT(a, bt)},
				{"TMatMul", kern.TMatMul(at, b), naive.TMatMul(at, b)},
			}
			for _, c := range cases {
				if !c.got.SameShape(c.want) {
					t.Fatalf("%s %s %v: shape %v vs %v", kern.Name(), c.op, dims, c.got.Shape(), c.want.Shape())
				}
				if d := maxAbsDiff(c.got, c.want); d > 1e-9 {
					t.Fatalf("%s %s %v: differs from naive by %g", kern.Name(), c.op, dims, d)
				}
			}
		}
	}
}

// TestBlockedGemmDeterministic demands bitwise-identical results from
// repeated runs of the blocked kernel on shapes large enough to engage
// the 2-D parallel decomposition: the tile schedule must never leak
// into the numbers.
func TestBlockedGemmDeterministic(t *testing.T) {
	_, blocked := kernelPair(t)
	rng := rand.New(rand.NewSource(17))
	for _, dims := range [][3]int{{255, 257, 63}, {128, 96, 160}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		first := blocked.MatMul(a, b)
		at := Transpose(a)
		firstT := blocked.TMatMul(at, b)
		for run := 0; run < 3; run++ {
			bitwiseEqual(t, "blocked MatMul repeat", blocked.MatMul(a, b), first)
			bitwiseEqual(t, "blocked TMatMul repeat", blocked.TMatMul(at, b), firstT)
		}
	}
}

// TestConv2DKernelShapeSweep fuzzes convolution geometries (odd
// spatial sizes, stride/padding combinations, chunk-edge pixel counts)
// and checks every optimized kernel's chunked-im2col path against the
// naive kernel, spot-checking against the direct-convolution reference
// as well.
func TestConv2DKernelShapeSweep(t *testing.T) {
	naive, _ := kernelPair(t)
	kernels := optimizedKernels(t)
	rng := rand.New(rand.NewSource(23))
	ran := 0
	for ran < 40 {
		n := 1 + rng.Intn(3)
		c := 1 + rng.Intn(4)
		h := 3 + rng.Intn(12)
		w := 3 + rng.Intn(12)
		outC := 1 + rng.Intn(6)
		kern := 1 + rng.Intn(3)
		p := Conv2DParams{Kernel: kern, Stride: 1 + rng.Intn(2), Padding: rng.Intn(3)}
		if kern > h+2*p.Padding || kern > w+2*p.Padding || p.OutDim(h) <= 0 || p.OutDim(w) <= 0 {
			continue
		}
		ran++
		x := Randn(rng, 0, 1, n, c, h, w)
		wgt := Randn(rng, 0, 1, outC, c, kern, kern)
		want := naive.Conv2D(x, wgt, p)
		name := fmt.Sprintf("n=%d c=%d h=%d w=%d outC=%d %+v", n, c, h, w, outC, p)
		for _, k := range kernels {
			got := k.Conv2D(x, wgt, p)
			if !got.SameShape(want) {
				t.Fatalf("Conv2D %s %s: shape %v vs %v", k.Name(), name, got.Shape(), want.Shape())
			}
			if d := maxAbsDiff(got, want); d > 1e-9 {
				t.Fatalf("Conv2D %s %s: differs from naive by %g", k.Name(), name, d)
			}
			if ran%8 == 0 {
				ref := refConv2D(x, wgt, p)
				if d := maxAbsDiff(got, ref); d > 1e-9 {
					t.Fatalf("Conv2D %s %s: differs from direct reference by %g", k.Name(), name, d)
				}
			}
		}
	}
}

// TestConv2DBlockedChunkEdges pins the chunked path's boundary cases:
// pixel counts just below, at, and above the chunk size, and a count
// that is not a multiple of the micro-tile height.
func TestConv2DBlockedChunkEdges(t *testing.T) {
	naive, blocked := kernelPair(t)
	rng := rand.New(rand.NewSource(31))
	p := Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
	for _, hw := range [][2]int{{11, 11}, {16, 8}, {16, 9}, {23, 7}} {
		h, w := hw[0], hw[1]
		x := Randn(rng, 0, 1, 2, 3, h, w)
		wgt := Randn(rng, 0, 1, 5, 3, 3, 3)
		got := blocked.Conv2D(x, wgt, p)
		want := naive.Conv2D(x, wgt, p)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("Conv2D %dx%d: blocked vs naive differ by %g", h, w, d)
		}
	}
}

// TestNCHWToMatRoundTrip checks the oracle's rearrangers invert each
// other (they carry conv products and gradients between GEMM and NCHW
// layouts), serial and forked.
func TestNCHWToMatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := Randn(rng, 0, 1, 3, 5, 4, 7)
	for _, threshold := range []int{1, 1 << 30} {
		back := matToNCHW(nchwToMat(x, threshold), 3, 5, 4, 7, threshold)
		bitwiseEqual(t, "matToNCHW(nchwToMat(x))", back, x)
	}
}
