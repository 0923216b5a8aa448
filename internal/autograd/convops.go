package autograd

import (
	"aibench/internal/tensor"
)

// Conv2D convolves NCHW input a with OIKK weights w.
func Conv2D(a, w *Value, p tensor.Conv2DParams) *Value {
	out := tensor.Conv2D(a.Data, w.Data, p)
	return newNode("conv2d", out, func(g *tensor.Tensor) {
		dx, dw := tensor.Conv2DBackward(a.Data, w.Data, g, p, a.requiresGrad, w.requiresGrad)
		if dx != nil {
			a.accumGrad(dx)
		}
		if dw != nil {
			w.accumGrad(dw)
		}
	}, a, w)
}

// MaxPool2D applies max pooling with gradient routing to argmax positions.
func MaxPool2D(a *Value, p tensor.Conv2DParams) *Value {
	out, arg := tensor.MaxPool2D(a.Data, p)
	return newNode("maxpool", out, func(g *tensor.Tensor) {
		ga := tensor.NewLike(a.Data)
		for i, idx := range arg {
			if idx >= 0 {
				ga.Data[idx] += g.Data[i]
			}
		}
		a.accumGrad(ga)
	}, a)
}

// AvgPool2D applies average pooling.
func AvgPool2D(a *Value, p tensor.Conv2DParams) *Value {
	out := tensor.AvgPool2D(a.Data, p)
	return newNode("avgpool", out, func(g *tensor.Tensor) {
		n, c, h, w := a.Data.Dim(0), a.Data.Dim(1), a.Data.Dim(2), a.Data.Dim(3)
		oh, ow := p.OutDim(h), p.OutDim(w)
		ga := tensor.NewLike(a.Data)
		div := float64(p.Kernel * p.Kernel)
		oi := 0
		for img := 0; img < n; img++ {
			for ch := 0; ch < c; ch++ {
				base := (img*c + ch) * h * w
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						gv := g.Data[oi] / div
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
								ga.Data[base+iy*w+ix] += gv
							}
						}
						oi++
					}
				}
			}
		}
		a.accumGrad(ga)
	}, a)
}

// GlobalAvgPool2D averages each channel plane, producing an N×C Value.
func GlobalAvgPool2D(a *Value) *Value {
	out := tensor.GlobalAvgPool2D(a.Data)
	return newNode("gap", out, func(g *tensor.Tensor) {
		n, c, h, w := a.Data.Dim(0), a.Data.Dim(1), a.Data.Dim(2), a.Data.Dim(3)
		plane := h * w
		ga := tensor.NewLike(a.Data)
		for img := 0; img < n; img++ {
			for ch := 0; ch < c; ch++ {
				gv := g.Data[img*c+ch] / float64(plane)
				base := (img*c + ch) * plane
				for k := 0; k < plane; k++ {
					ga.Data[base+k] = gv
				}
			}
		}
		a.accumGrad(ga)
	}, a)
}

// UpsampleNearest2D doubles spatial resolution by an integer factor; the
// backward pass sums gradients over each replicated block.
func UpsampleNearest2D(a *Value, factor int) *Value {
	out := tensor.UpsampleNearest2D(a.Data, factor)
	return newNode("upsample", out, func(g *tensor.Tensor) {
		n, c, h, w := a.Data.Dim(0), a.Data.Dim(1), a.Data.Dim(2), a.Data.Dim(3)
		oh, ow := h*factor, w*factor
		ga := tensor.NewLike(a.Data)
		for img := 0; img < n; img++ {
			for ch := 0; ch < c; ch++ {
				src := (img*c + ch) * oh * ow
				dst := (img*c + ch) * h * w
				for oy := 0; oy < oh; oy++ {
					iy := oy / factor
					for ox := 0; ox < ow; ox++ {
						ga.Data[dst+iy*w+ox/factor] += g.Data[src+oy*ow+ox]
					}
				}
			}
		}
		a.accumGrad(ga)
	}, a)
}
