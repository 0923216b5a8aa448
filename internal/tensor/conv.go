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

// Conv2D convolves an NCHW input with an OIKK weight tensor, producing
// an N×O×outH×outW output. Both implementations do it as im2col + GEMM
// (mirroring cuDNN's implicit-GEMM kernels); the GEBP engine reads
// each pixel's taps in place from a zero-bordered image copy instead of
// materializing the column matrix.
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
	flops := 2 * int64(x.shape[0]) * int64(oh) * int64(ow) * int64(x.shape[1]) * int64(p.Kernel) * int64(p.Kernel) * int64(weight.shape[0])
	return dispatch(telemetry.OpConv2D, flops, x, weight).Conv2D(x, weight, p)
}

// Conv2DBackward is Conv2D's adjoint: from the output gradient g
// (N×O×outH×outW) it returns dx = col2im(G·W) in x's shape when needX and
// dw = Gᵀ·im2col(x) in weight's shape when needW (nil otherwise), where
// G is g laid out (N·outH·outW)×O and W is weight laid out O×(C·K·K).
// The two products count as the MatMul and the TMatMul they are.
func Conv2DBackward(x, weight, g *Tensor, p Conv2DParams, needX, needW bool) (dx, dw *Tensor) {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: Conv2DBackward requires NCHW input, got %v", x.shape))
	}
	if len(weight.shape) != 4 || weight.shape[1] != x.shape[1] || weight.shape[2] != p.Kernel || weight.shape[3] != p.Kernel {
		panic(fmt.Sprintf("tensor: Conv2DBackward weight shape %v incompatible with input %v kernel %d", weight.shape, x.shape, p.Kernel))
	}
	n, outC := x.shape[0], weight.shape[0]
	oh, ow := p.OutDim(x.shape[2]), p.OutDim(x.shape[3])
	if len(g.shape) != 4 || g.shape[0] != n || g.shape[1] != outC || g.shape[2] != oh || g.shape[3] != ow {
		panic(fmt.Sprintf("tensor: Conv2DBackward gradient shape %v, want [%d %d %d %d]", g.shape, n, outC, oh, ow))
	}
	flops := 2 * int64(n) * int64(oh) * int64(ow) * int64(outC) * int64(x.shape[1]) * int64(p.Kernel) * int64(p.Kernel)
	r := RunOf(x, weight, g)
	if needX {
		r.Counters.CountKernel(telemetry.OpMatMul, flops)
	}
	if needW {
		r.Counters.CountKernel(telemetry.OpTMatMul, flops)
	}
	return r.Kernels.Conv2DBackward(x, weight, g, p, needX, needW)
}

// AvgPool2D applies average pooling to an NCHW tensor. Padding taps count
// toward the divisor (count_include_pad semantics).
func AvgPool2D(x *Tensor, p Conv2DParams) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutDim(h), p.OutDim(w)
	out := x.arena.New(n, c, oh, ow)
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
	out := x.arena.New(n, c)
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
	out := x.arena.New(n, c, oh, ow)
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
