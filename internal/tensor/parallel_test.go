package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refMatMul is a naive, unconditionally serial reference.
func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			av := a.Data[i*k+kk]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[kk*n+j]
			}
		}
	}
	return out
}

func refMatMulT(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[j*k+kk]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func refTMatMul(a, b *Tensor) *Tensor {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		for i := 0; i < m; i++ {
			av := a.Data[kk*m+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[kk*n+j]
			}
		}
	}
	return out
}

// refConv2D is a direct (non-im2col) convolution reference.
func refConv2D(x, weight *Tensor, p Conv2DParams) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outC, k := weight.shape[0], p.Kernel
	oh, ow := p.OutDim(h), p.OutDim(w)
	out := New(n, outC, oh, ow)
	for img := 0; img < n; img++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < k; ky++ {
							iy := oy*p.Stride - p.Padding + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox*p.Stride - p.Padding + kx
								if ix < 0 || ix >= w {
									continue
								}
								s += x.Data[((img*c+ch)*h+iy)*w+ix] *
									weight.Data[((oc*c+ch)*k+ky)*k+kx]
							}
						}
					}
					out.Data[((img*outC+oc)*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return out
}

func bitwiseEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: size %d != %d", name, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulParallelMatchesSerial exercises shapes on both sides of the
// parallel threshold and demands bitwise equality with the serial
// reference (run with -race to also catch data races in the pool).
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{3, 4, 5}, {17, 31, 13}, {96, 80, 112}, {128, 128, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		bitwiseEqual(t, "MatMul", MatMul(a, b), refMatMul(a, b))
		bt := Randn(rng, 0, 1, n, k)
		bitwiseEqual(t, "MatMulT", MatMulT(a, bt), refMatMulT(a, bt))
		at := Randn(rng, 0, 1, k, m)
		bitwiseEqual(t, "TMatMul", TMatMul(at, b), refTMatMul(at, b))
	}
}

func TestMatMulParallelWithZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := Randn(rng, 0, 1, 80, 96)
	b := Randn(rng, 0, 1, 96, 72)
	for i := 0; i < len(a.Data); i += 3 {
		a.Data[i] = 0 // exercise the zero-skip path above the threshold
	}
	bitwiseEqual(t, "MatMul/zeros", MatMul(a, b), refMatMul(a, b))
	at := Transpose(a)
	bitwiseEqual(t, "TMatMul/zeros", TMatMul(at, b), refTMatMul(at, b))
}

func TestConv2DParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		n, c, h, w, outC int
		p                Conv2DParams
	}{
		{1, 2, 6, 6, 3, Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}},
		{4, 8, 20, 20, 16, Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}},
		{2, 16, 28, 28, 32, Conv2DParams{Kernel: 5, Stride: 2, Padding: 2}},
	}
	for _, tc := range cases {
		x := Randn(rng, 0, 1, tc.n, tc.c, tc.h, tc.w)
		wgt := Randn(rng, 0, 1, tc.outC, tc.c, tc.p.Kernel, tc.p.Kernel)
		got := Conv2D(x, wgt, tc.p)
		want := refConv2D(x, wgt, tc.p)
		if len(got.Data) != len(want.Data) {
			t.Fatalf("conv output size %d != %d", len(got.Data), len(want.Data))
		}
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("conv element %d differs: %v vs %v", i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestConv2DDeterministic runs the same large conv twice; the im2col+GEMM
// pipeline must be bitwise reproducible regardless of goroutine schedule.
func TestConv2DDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := Randn(rng, 0, 1, 4, 8, 24, 24)
	wgt := Randn(rng, 0, 1, 16, 8, 3, 3)
	p := Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
	first := Conv2D(x, wgt, p)
	for run := 0; run < 3; run++ {
		bitwiseEqual(t, "Conv2D/repeat", Conv2D(x, wgt, p), first)
	}
}
