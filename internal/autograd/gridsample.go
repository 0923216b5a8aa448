package autograd

import (
	"fmt"
	"math"

	"aibench/internal/tensor"
)

// AffineGrid generates a sampling grid from per-sample 2×3 affine
// transforms theta (shape [N,6], row-major [a b tx; c d ty]). The output
// has shape [N, outH*outW, 2] with normalized coordinates in [-1,1],
// matching the Spatial Transformer Networks formulation.
func AffineGrid(theta *Value, outH, outW int) *Value {
	if theta.Data.Rank() != 2 || theta.Data.Dim(1) != 6 {
		panic(fmt.Sprintf("autograd: AffineGrid wants [N,6] theta, got %v", theta.Data.Shape()))
	}
	n := theta.Data.Dim(0)
	hw := outH * outW
	out := tensor.ArenaOf(theta.Data).New(n, hw, 2)
	// Base (target) coordinates, normalized to [-1,1].
	xs := make([]float64, outW)
	ys := make([]float64, outH)
	for i := range xs {
		if outW > 1 {
			xs[i] = -1 + 2*float64(i)/float64(outW-1)
		}
	}
	for i := range ys {
		if outH > 1 {
			ys[i] = -1 + 2*float64(i)/float64(outH-1)
		}
	}
	for img := 0; img < n; img++ {
		t := theta.Data.Data[img*6 : (img+1)*6]
		pi := 0
		for y := 0; y < outH; y++ {
			for x := 0; x < outW; x++ {
				gx := t[0]*xs[x] + t[1]*ys[y] + t[2]
				gy := t[3]*xs[x] + t[4]*ys[y] + t[5]
				out.Data[(img*hw+pi)*2] = gx
				out.Data[(img*hw+pi)*2+1] = gy
				pi++
			}
		}
	}
	node := newNode(out, theta)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			gt := tensor.NewLike(theta.Data)
			for img := 0; img < n; img++ {
				pi := 0
				for y := 0; y < outH; y++ {
					for x := 0; x < outW; x++ {
						ggx := g.Data[(img*hw+pi)*2]
						ggy := g.Data[(img*hw+pi)*2+1]
						gt.Data[img*6+0] += ggx * xs[x]
						gt.Data[img*6+1] += ggx * ys[y]
						gt.Data[img*6+2] += ggx
						gt.Data[img*6+3] += ggy * xs[x]
						gt.Data[img*6+4] += ggy * ys[y]
						gt.Data[img*6+5] += ggy
						pi++
					}
				}
			}
			theta.accumGrad(gt)
		}
	}
	return node
}

// GridSample bilinearly samples the NCHW input at the normalized grid
// coordinates (shape [N, outH*outW, 2], values in [-1,1]; out-of-range
// samples read as zero). Gradients flow to both the input and the grid,
// which is what lets the Spatial Transformer learn its localization net.
func GridSample(input, grid *Value, outH, outW int) *Value {
	n, c, h, w := input.Data.Dim(0), input.Data.Dim(1), input.Data.Dim(2), input.Data.Dim(3)
	hw := outH * outW
	if grid.Data.Rank() != 3 || grid.Data.Dim(0) != n || grid.Data.Dim(1) != hw || grid.Data.Dim(2) != 2 {
		panic(fmt.Sprintf("autograd: GridSample grid shape %v incompatible with [%d,%d,2]", grid.Data.Shape(), n, hw))
	}
	out := tensor.ArenaOf(input.Data, grid.Data).New(n, c, outH, outW)
	// unnormalize maps [-1,1] to pixel coordinates (align_corners=true).
	unx := func(v float64) float64 { return (v + 1) / 2 * float64(w-1) }
	uny := func(v float64) float64 { return (v + 1) / 2 * float64(h-1) }
	sample := func(img, ch int, ix, iy int) float64 {
		if ix < 0 || ix >= w || iy < 0 || iy >= h {
			return 0
		}
		return input.Data.Data[((img*c+ch)*h+iy)*w+ix]
	}
	for img := 0; img < n; img++ {
		for pi := 0; pi < hw; pi++ {
			gx := unx(grid.Data.Data[(img*hw+pi)*2])
			gy := uny(grid.Data.Data[(img*hw+pi)*2+1])
			x0, y0 := int(math.Floor(gx)), int(math.Floor(gy))
			fx, fy := gx-float64(x0), gy-float64(y0)
			for ch := 0; ch < c; ch++ {
				v := sample(img, ch, x0, y0)*(1-fx)*(1-fy) +
					sample(img, ch, x0+1, y0)*fx*(1-fy) +
					sample(img, ch, x0, y0+1)*(1-fx)*fy +
					sample(img, ch, x0+1, y0+1)*fx*fy
				out.Data[(img*c+ch)*hw+pi] = v
			}
		}
	}
	node := newNode(out, input, grid)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			var gin *tensor.Tensor
			if input.requiresGrad {
				gin = tensor.NewLike(input.Data)
			}
			var ggr *tensor.Tensor
			if grid.requiresGrad {
				ggr = tensor.NewLike(grid.Data)
			}
			scatter := func(img, ch, ix, iy int, v float64) {
				if ix < 0 || ix >= w || iy < 0 || iy >= h {
					return
				}
				gin.Data[((img*c+ch)*h+iy)*w+ix] += v
			}
			for img := 0; img < n; img++ {
				for pi := 0; pi < hw; pi++ {
					gx := unx(grid.Data.Data[(img*hw+pi)*2])
					gy := uny(grid.Data.Data[(img*hw+pi)*2+1])
					x0, y0 := int(math.Floor(gx)), int(math.Floor(gy))
					fx, fy := gx-float64(x0), gy-float64(y0)
					var dGx, dGy float64
					for ch := 0; ch < c; ch++ {
						gy0 := g.Data[(img*c+ch)*hw+pi]
						if gin != nil {
							scatter(img, ch, x0, y0, gy0*(1-fx)*(1-fy))
							scatter(img, ch, x0+1, y0, gy0*fx*(1-fy))
							scatter(img, ch, x0, y0+1, gy0*(1-fx)*fy)
							scatter(img, ch, x0+1, y0+1, gy0*fx*fy)
						}
						if ggr != nil {
							v00 := sample(img, ch, x0, y0)
							v10 := sample(img, ch, x0+1, y0)
							v01 := sample(img, ch, x0, y0+1)
							v11 := sample(img, ch, x0+1, y0+1)
							// d(out)/d(fx) and d(out)/d(fy).
							dGx += gy0 * ((v10-v00)*(1-fy) + (v11-v01)*fy)
							dGy += gy0 * ((v01-v00)*(1-fx) + (v11-v10)*fx)
						}
					}
					if ggr != nil {
						// Chain through the unnormalization.
						ggr.Data[(img*hw+pi)*2] += dGx * float64(w-1) / 2
						ggr.Data[(img*hw+pi)*2+1] += dGy * float64(h-1) / 2
					}
				}
			}
			if gin != nil {
				input.accumGrad(gin)
			}
			if ggr != nil {
				grid.accumGrad(ggr)
			}
		}
	}
	return node
}
