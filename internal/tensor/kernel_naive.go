package tensor

// naiveKernels is the original straight-loop implementation, kept
// registered as the reference oracle for cross-kernel equivalence
// tests and for measuring what the blocked kernel buys. Large ops are
// row-parallel (outer loop only); every output element accumulates its
// k terms in ascending order, so results are bitwise reproducible.
type naiveKernels struct{}

func (naiveKernels) Name() string { return "naive" }

// ParallelThreshold: the fork-join overhead of the pool is ~µs, so a
// kernel needs on the order of 10^5 multiply-adds before splitting the
// outer loop pays for itself.
func (naiveKernels) ParallelThreshold() int { return 1 << 17 }

func (nk naiveKernels) MatMul(a, b *Tensor) *Tensor {
	m, ka := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	// ikj loop order keeps the inner loop streaming over contiguous rows
	// of b and out. Each output row depends only on one row of a, so
	// rows parallelize cleanly.
	parGate(nk.ParallelThreshold(), m, m*ka*n, func(i int) {
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
	})
	return out
}

func (nk naiveKernels) MatMulT(a, b *Tensor) *Tensor {
	m, ka := a.shape[0], a.shape[1]
	n, kb := b.shape[0], b.shape[1]
	out := New(m, n)
	parGate(nk.ParallelThreshold(), m, m*ka*n, func(i int) {
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
	})
	return out
}

func (nk naiveKernels) TMatMul(a, b *Tensor) *Tensor {
	ka, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	// i-outer/k-middle order so output rows are independent and can be
	// split across cores; per-element accumulation still runs k
	// ascending, matching the k-outer serial order bit for bit.
	parGate(nk.ParallelThreshold(), m, m*ka*n, func(i int) {
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
	})
	return out
}

func (nk naiveKernels) MatVec(a, v *Tensor) *Tensor {
	return gatedMatVec(nk.ParallelThreshold(), a, v)
}

func (nk naiveKernels) Outer(a, b *Tensor) *Tensor {
	return gatedOuter(nk.ParallelThreshold(), a, b)
}

// Conv2D is im2col followed by GEMM, mirroring how cuDNN's
// implicit-GEMM kernels work. It materializes the full column matrix;
// the GEBP engine's chunked variant avoids that. The parallel
// threshold is resolved once and handed to all three stages rather
// than re-resolved per parGate entry.
func (nk naiveKernels) Conv2D(x, weight *Tensor, p Conv2DParams) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outC := weight.shape[0]
	oh, ow := p.OutDim(h), p.OutDim(w)
	t := nk.ParallelThreshold()
	cols := im2col(x, p, t)                           // (n*oh*ow) × (c*k*k)
	wmat := weight.Reshape(outC, c*p.Kernel*p.Kernel) // outC × (c*k*k)
	prod := nk.MatMulT(cols, wmat)                    // (n*oh*ow) × outC
	return matToNCHW(prod, n, outC, oh, ow, t)
}
