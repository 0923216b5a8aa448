package tensor

import (
	"fmt"

	"aibench/internal/telemetry"
)

// Conv2DParams describes a 2-D convolution or pooling geometry.
type Conv2DParams struct {
	Kernel  int // square kernel size
	Stride  int
	Padding int
}

// OutDim returns the output spatial size for input size in.
func (p Conv2DParams) OutDim(in int) int {
	return (in+2*p.Padding-p.Kernel)/p.Stride + 1
}

// Im2Col unfolds an NCHW input into a matrix of shape
// (N*outH*outW) × (C*K*K) so convolution becomes a GEMM. Out-of-bounds
// (padded) taps read as zero. The active kernel's parallel threshold is
// resolved once here; kernel code that already holds a threshold calls
// im2col directly.
func Im2Col(x *Tensor, p Conv2DParams) *Tensor {
	return im2col(x, p, ActiveKernels().ParallelThreshold())
}

func im2col(x *Tensor, p Conv2DParams, threshold int) *Tensor {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: Im2Col requires NCHW input, got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutDim(h), p.OutDim(w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col output would be empty for input %v params %+v", x.shape, p))
	}
	k := p.Kernel
	cols := New(n*oh*ow, c*k*k)
	// Each output row unfolds one (img, oy, ox) receptive field into its
	// own slice of cols, so rows parallelize with no shared writes.
	parGate(threshold, n*oh*ow, n*oh*ow*c*k*k, func(row int) {
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
	})
	return cols
}

// Col2Im folds a (N*outH*outW) × (C*K*K) matrix back into an NCHW tensor of
// shape [n,c,h,w], accumulating overlapping taps. It is the adjoint of
// Im2Col and is used by convolution backward passes.
func Col2Im(cols *Tensor, n, c, h, w int, p Conv2DParams) *Tensor {
	oh, ow := p.OutDim(h), p.OutDim(w)
	k := p.Kernel
	if len(cols.shape) != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != c*k*k {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with n=%d c=%d h=%d w=%d %+v", cols.shape, n, c, h, w, p))
	}
	x := New(n, c, h, w)
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

// Conv2D convolves an NCHW input with an OIKK weight tensor, producing
// an N×O×outH×outW output. Both implementations do it as im2col + GEMM
// (mirroring cuDNN's implicit-GEMM kernels); the GEBP engine unfolds
// and multiplies chunk-by-chunk instead of materializing the full
// column matrix.
func Conv2D(x, weight *Tensor, p Conv2DParams) *Tensor {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: Conv2D requires NCHW input, got %v", x.shape))
	}
	if len(weight.shape) != 4 || weight.shape[2] != p.Kernel || weight.shape[3] != p.Kernel {
		panic(fmt.Sprintf("tensor: Conv2D weight shape %v incompatible with kernel %d", weight.shape, p.Kernel))
	}
	if weight.shape[1] != x.shape[1] {
		panic(fmt.Sprintf("tensor: Conv2D input channels %d != weight in-channels %d", x.shape[1], weight.shape[1]))
	}
	oh, ow := p.OutDim(x.shape[2]), p.OutDim(x.shape[3])
	telemetry.CountKernel(telemetry.OpConv2D,
		2*int64(x.shape[0])*int64(oh)*int64(ow)*int64(x.shape[1])*int64(p.Kernel)*int64(p.Kernel)*int64(weight.shape[0]))
	return ActiveKernels().Conv2D(x, weight, p)
}

// matToNCHW rearranges a (n*oh*ow) × c matrix whose rows run
// (img,oy,ox) into an NCHW tensor. Every (img,pix) row writes a
// disjoint column of the output, so rows parallelize cleanly behind
// the caller's already-resolved parallel threshold.
func matToNCHW(prod *Tensor, n, c, oh, ow int, threshold int) *Tensor {
	out := New(n, c, oh, ow)
	plane := oh * ow
	parGate(threshold, n*plane, n*plane*c, func(r int) {
		img, pix := r/plane, r%plane
		src := prod.Data[r*c : (r+1)*c]
		for ch := 0; ch < c; ch++ {
			out.Data[(img*c+ch)*plane+pix] = src[ch]
		}
	})
	return out
}

// NCHWToMat is the inverse rearrangement: an NCHW tensor becomes a
// (n*oh*ow) × c matrix with rows running (img,oy,ox). Convolution
// backward passes use it to turn the output gradient back into GEMM
// layout; it routes through the same parallel gate as the kernels,
// resolving the active kernel's threshold once per call.
func NCHWToMat(g *Tensor) *Tensor {
	if len(g.shape) != 4 {
		panic(fmt.Sprintf("tensor: NCHWToMat requires NCHW input, got %v", g.shape))
	}
	threshold := ActiveKernels().ParallelThreshold()
	n, c, oh, ow := g.shape[0], g.shape[1], g.shape[2], g.shape[3]
	plane := oh * ow
	out := New(n*plane, c)
	parGate(threshold, n*plane, n*plane*c, func(r int) {
		img, pix := r/plane, r%plane
		dst := out.Data[r*c : (r+1)*c]
		for ch := 0; ch < c; ch++ {
			dst[ch] = g.Data[(img*c+ch)*plane+pix]
		}
	})
	return out
}

// MaxPool2D applies max pooling to an NCHW tensor and also returns the
// argmax indices (flat indices into the input) for the backward pass.
func MaxPool2D(x *Tensor, p Conv2DParams) (*Tensor, []int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutDim(h), p.OutDim(w)
	out := New(n, c, oh, ow)
	arg := make([]int, n*c*oh*ow)
	oi := 0
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := 0.0
					bestIdx := -1
					for ky := 0; ky < p.Kernel; ky++ {
						iy := oy*p.Stride - p.Padding + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < p.Kernel; kx++ {
							ix := ox*p.Stride - p.Padding + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := x.Data[base+iy*w+ix]
							if bestIdx < 0 || v > best {
								best = v
								bestIdx = base + iy*w + ix
							}
						}
					}
					out.Data[oi] = best
					arg[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out, arg
}

// AvgPool2D applies average pooling to an NCHW tensor. Padding taps count
// toward the divisor (count_include_pad semantics).
func AvgPool2D(x *Tensor, p Conv2DParams) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutDim(h), p.OutDim(w)
	out := New(n, c, oh, ow)
	div := float64(p.Kernel * p.Kernel)
	oi := 0
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ky := 0; ky < p.Kernel; ky++ {
						iy := oy*p.Stride - p.Padding + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < p.Kernel; kx++ {
							ix := ox*p.Stride - p.Padding + kx
							if ix < 0 || ix >= w {
								continue
							}
							s += x.Data[base+iy*w+ix]
						}
					}
					out.Data[oi] = s / div
					oi++
				}
			}
		}
	}
	return out
}

// GlobalAvgPool2D averages each channel plane of an NCHW tensor, returning
// an N×C matrix.
func GlobalAvgPool2D(x *Tensor) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n, c)
	plane := h * w
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * plane
			s := 0.0
			for k := 0; k < plane; k++ {
				s += x.Data[base+k]
			}
			out.Data[img*c+ch] = s / float64(plane)
		}
	}
	return out
}

// UpsampleNearest2D doubles the spatial resolution of an NCHW tensor by
// integer factor, replicating each pixel factor×factor times.
func UpsampleNearest2D(x *Tensor, factor int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := h*factor, w*factor
	out := New(n, c, oh, ow)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			src := (img*c + ch) * h * w
			dst := (img*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				iy := oy / factor
				for ox := 0; ox < ow; ox++ {
					out.Data[dst+oy*ow+ox] = x.Data[src+iy*w+ox/factor]
				}
			}
		}
	}
	return out
}
