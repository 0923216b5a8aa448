package tensor

import (
	"fmt"

	"aibench/internal/parallel"
)

// naiveKernels is the original straight-loop implementation, kept
// selectable as the reference oracle for cross-kernel equivalence
// tests and for measuring what the blocked kernel buys. Large ops are
// row-parallel (outer loop only); every output element accumulates its
// k terms in ascending order, so results are bitwise reproducible.
type naiveKernels struct{}

func (naiveKernels) Name() string { return "naive" }

// naiveThreshold is the multiply-add count above which the oracle's
// loops fork: the fork-join overhead of the pool is ~µs, so a kernel
// needs on the order of 10^5 multiply-adds before splitting the outer
// loop pays for itself.
const naiveThreshold = 1 << 17

func (naiveKernels) MatMul(a, b *Tensor) *Tensor {
	m, ka := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := ArenaOf(a, b).New(m, n)
	// ikj loop order keeps the inner loop streaming over contiguous rows
	// of b and out. Each output row depends only on one row of a, so
	// rows parallelize cleanly.
	parGate(naiveThreshold, m, m*ka*n, parallel.Func(func(i int) {
		arow := a.Data[i*ka : (i+1)*ka]
		orow := out.Data[i*n : (i+1)*n]
		for k := 0; k < ka; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}))
	return out
}

func (naiveKernels) MatMulT(a, b *Tensor) *Tensor {
	m, ka := a.shape[0], a.shape[1]
	n, kb := b.shape[0], b.shape[1]
	out := ArenaOf(a, b).New(m, n)
	parGate(naiveThreshold, m, m*ka*n, parallel.Func(func(i int) {
		arow := a.Data[i*ka : (i+1)*ka]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*kb : (j+1)*kb]
			s := 0.0
			for k := 0; k < ka; k++ {
				s += arow[k] * brow[k]
			}
			orow[j] = s
		}
	}))
	return out
}

func (naiveKernels) TMatMul(a, b *Tensor) *Tensor {
	ka, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := ArenaOf(a, b).New(m, n)
	// i-outer/k-middle order so output rows are independent and can be
	// split across cores; per-element accumulation still runs k
	// ascending, matching the k-outer serial order bit for bit.
	parGate(naiveThreshold, m, m*ka*n, parallel.Func(func(i int) {
		orow := out.Data[i*n : (i+1)*n]
		for k := 0; k < ka; k++ {
			av := a.Data[k*m+i]
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}))
	return out
}

// Conv2D is im2col followed by GEMM, mirroring how cuDNN's
// implicit-GEMM kernels work. It materializes the full column matrix;
// the GEBP engine's chunked variant avoids that.
func (nk naiveKernels) Conv2D(x, weight *Tensor, p Conv2DParams) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outC := weight.shape[0]
	oh, ow := p.OutDim(h), p.OutDim(w)
	cols := im2col(x, p, naiveThreshold)              // (n*oh*ow) × (c*k*k)
	wmat := weight.Reshape(outC, c*p.Kernel*p.Kernel) // outC × (c*k*k)
	prod := nk.MatMulT(cols, wmat)                    // (n*oh*ow) × outC
	return matToNCHW(prod, n, outC, oh, ow, naiveThreshold)
}

// Conv2DBackward is the materializing composition the fused engine is
// checked against: lay g out as a matrix, invert the forward GEMM into
// the full column-matrix gradient and fold it (dx), unfold x into the
// full column matrix and contract it with g (dw).
func (nk naiveKernels) Conv2DBackward(x, weight, g *Tensor, p Conv2DParams, needX, needW bool) (dx, dw *Tensor) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outC := weight.shape[0]
	gmat := nchwToMat(g, naiveThreshold)              // (n*oh*ow) × outC
	wmat := weight.Reshape(outC, c*p.Kernel*p.Kernel) // outC × (c*k*k)
	if needX {
		dx = col2im(nk.MatMul(gmat, wmat), n, c, h, w, p)
	}
	if needW {
		dw = nk.TMatMul(gmat, im2col(x, p, naiveThreshold)).Reshape(weight.shape...)
	}
	return dx, dw
}

// The rest of this file is the oracle's materializing machinery: the
// full im2col unfolding, its adjoint, and the NCHW↔matrix rearrangers.
// Only naiveKernels uses it; each helper takes its parallel threshold
// as an argument, so a test can force either side of the gate.

// im2col unfolds an NCHW input into a matrix of shape
// (N*outH*outW) × (C*K*K) so convolution becomes a GEMM. Out-of-bounds
// (padded) taps read as zero.
func im2col(x *Tensor, p Conv2DParams, threshold int) *Tensor {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: im2col requires NCHW input, got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutDim(h), p.OutDim(w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: im2col output would be empty for input %v params %+v", x.shape, p))
	}
	k := p.Kernel
	cols := x.arena.New(n*oh*ow, c*k*k)
	// Each output row unfolds one (img, oy, ox) receptive field into its
	// own slice of cols, so rows parallelize with no shared writes.
	parGate(threshold, n*oh*ow, n*oh*ow*c*k*k, parallel.Func(func(row int) {
		img := row / (oh * ow)
		oy := row / ow % oh
		ox := row % ow
		dst := cols.Data[row*c*k*k : (row+1)*c*k*k]
		di := 0
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * h * w
			for ky := 0; ky < k; ky++ {
				iy := oy*p.Stride - p.Padding + ky
				for kx := 0; kx < k; kx++ {
					ix := ox*p.Stride - p.Padding + kx
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						dst[di] = x.Data[base+iy*w+ix]
					}
					di++
				}
			}
		}
	}))
	return cols
}

// col2im folds a (N*outH*outW) × (C*K*K) matrix back into an NCHW tensor of
// shape [n,c,h,w], accumulating overlapping taps in ascending (row, tap)
// order. It is the adjoint of im2col; the GEBP engine's fused backward
// must reproduce exactly this order for every element.
func col2im(cols *Tensor, n, c, h, w int, p Conv2DParams) *Tensor {
	oh, ow := p.OutDim(h), p.OutDim(w)
	k := p.Kernel
	if len(cols.shape) != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != c*k*k {
		panic(fmt.Sprintf("tensor: col2im shape %v incompatible with n=%d c=%d h=%d w=%d %+v", cols.shape, n, c, h, w, p))
	}
	x := cols.arena.New(n, c, h, w)
	row := 0
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				src := cols.Data[row*c*k*k : (row+1)*c*k*k]
				si := 0
				for ch := 0; ch < c; ch++ {
					base := (img*c + ch) * h * w
					for ky := 0; ky < k; ky++ {
						iy := oy*p.Stride - p.Padding + ky
						for kx := 0; kx < k; kx++ {
							ix := ox*p.Stride - p.Padding + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								x.Data[base+iy*w+ix] += src[si]
							}
							si++
						}
					}
				}
				row++
			}
		}
	}
	return x
}

// matToNCHW rearranges a (n*oh*ow) × c matrix whose rows run
// (img,oy,ox) into an NCHW tensor. Every (img,pix) row writes a
// disjoint column of the output, so rows parallelize cleanly.
func matToNCHW(prod *Tensor, n, c, oh, ow int, threshold int) *Tensor {
	out := prod.arena.New(n, c, oh, ow)
	plane := oh * ow
	parGate(threshold, n*plane, n*plane*c, parallel.Func(func(r int) {
		img, pix := r/plane, r%plane
		src := prod.Data[r*c : (r+1)*c]
		for ch := 0; ch < c; ch++ {
			out.Data[(img*c+ch)*plane+pix] = src[ch]
		}
	}))
	return out
}

// nchwToMat is the inverse rearrangement: an NCHW tensor becomes a
// (n*oh*ow) × c matrix with rows running (img,oy,ox), which turns the
// output gradient back into GEMM layout.
func nchwToMat(g *Tensor, threshold int) *Tensor {
	n, c, oh, ow := g.shape[0], g.shape[1], g.shape[2], g.shape[3]
	plane := oh * ow
	out := g.arena.New(n*plane, c)
	parGate(threshold, n*plane, n*plane*c, parallel.Func(func(r int) {
		img, pix := r/plane, r%plane
		dst := out.Data[r*c : (r+1)*c]
		for ch := 0; ch < c; ch++ {
			dst[ch] = g.Data[(img*c+ch)*plane+pix]
		}
	}))
	return out
}
