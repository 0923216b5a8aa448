package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveConv2D is a direct (non-im2col) reference implementation.
func naiveConv2D(x, w *Tensor, p Conv2DParams) *Tensor {
	n, c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oc := w.Dim(0)
	oh, ow := p.OutDim(h), p.OutDim(wd)
	out := New(n, oc, oh, ow)
	for img := 0; img < n; img++ {
		for o := 0; o < oc; o++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < p.Kernel; ky++ {
							iy := oy*p.Stride - p.Padding + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < p.Kernel; kx++ {
								ix := ox*p.Stride - p.Padding + kx
								if ix < 0 || ix >= wd {
									continue
								}
								s += x.At(img, ch, iy, ix) * w.At(o, ch, ky, kx)
							}
						}
					}
					out.Set(s, img, o, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	cases := []Conv2DParams{
		{Kernel: 3, Stride: 1, Padding: 1},
		{Kernel: 3, Stride: 2, Padding: 1},
		{Kernel: 1, Stride: 1, Padding: 0},
		{Kernel: 5, Stride: 1, Padding: 2},
		{Kernel: 2, Stride: 2, Padding: 0},
	}
	rng := rand.New(rand.NewSource(11))
	for _, p := range cases {
		x := Randn(rng, 0, 1, 2, 3, 8, 8)
		w := Randn(rng, 0, 1, 4, 3, p.Kernel, p.Kernel)
		got := Conv2D(x, w, p)
		want := naiveConv2D(x, w, p)
		if !AllClose(got, want, 1e-9) {
			t.Fatalf("Conv2D mismatch for %+v", p)
		}
	}
}

func TestConv2DOutputShape(t *testing.T) {
	p := Conv2DParams{Kernel: 3, Stride: 2, Padding: 1}
	x := New(1, 2, 9, 9)
	w := New(5, 2, 3, 3)
	out := Conv2D(x, w, p)
	if out.Dim(0) != 1 || out.Dim(1) != 5 || out.Dim(2) != 5 || out.Dim(3) != 5 {
		t.Fatalf("shape = %v", out.Shape())
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity that
	// makes conv backward correct.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
		x := Randn(rng, 0, 1, 1, 2, 5, 5)
		cols := im2col(x, p, 1<<17)
		y := Randn(rng, 0, 1, cols.Dim(0), cols.Dim(1))
		lhs := Dot(cols, y)
		rhs := Dot(x, col2im(y, 1, 2, 5, 5, p))
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPool2DKnown(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, arg := MaxPool2D(x, Conv2DParams{Kernel: 2, Stride: 2})
	want := []float64{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("MaxPool[%d] = %g, want %g", i, out.Data[i], w)
		}
	}
	if x.Data[arg[0]] != 6 || x.Data[arg[3]] != 16 {
		t.Fatalf("argmax indices wrong: %v", arg)
	}
}

func TestAvgPool2DKnown(t *testing.T) {
	x := FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	out := AvgPool2D(x, Conv2DParams{Kernel: 2, Stride: 2})
	if out.Data[0] != 2.5 {
		t.Fatalf("AvgPool = %g, want 2.5", out.Data[0])
	}
}

func TestGlobalAvgPool2D(t *testing.T) {
	x := FromSlice([]float64{1, 3, 5, 7, 2, 2, 2, 2}, 1, 2, 2, 2)
	out := GlobalAvgPool2D(x)
	if out.At(0, 0) != 4 || out.At(0, 1) != 2 {
		t.Fatalf("GlobalAvgPool = %v", out.Data)
	}
}

func TestUpsampleNearest2D(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	out := UpsampleNearest2D(x, 2)
	if out.Dim(2) != 4 || out.Dim(3) != 4 {
		t.Fatalf("shape = %v", out.Shape())
	}
	if out.At(0, 0, 0, 1) != 1 || out.At(0, 0, 3, 3) != 4 {
		t.Fatalf("upsample values wrong: %v", out.Data)
	}
}

func TestMaxPoolDominatesAvgPool(t *testing.T) {
	// Property: per-window max >= per-window average.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := Randn(rng, 0, 1, 1, 1, 6, 6)
		p := Conv2DParams{Kernel: 2, Stride: 2}
		mx, _ := MaxPool2D(x, p)
		av := AvgPool2D(x, p)
		for i := range mx.Data {
			if mx.Data[i] < av.Data[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConvLinearity(t *testing.T) {
	// Property: conv(x1+x2) == conv(x1) + conv(x2).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
		w := Randn(rng, 0, 1, 2, 1, 3, 3)
		x1 := Randn(rng, 0, 1, 1, 1, 4, 4)
		x2 := Randn(rng, 0, 1, 1, 1, 4, 4)
		left := Conv2D(Add(x1, x2), w, p)
		right := Add(Conv2D(x1, w, p), Conv2D(x2, w, p))
		return AllClose(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
