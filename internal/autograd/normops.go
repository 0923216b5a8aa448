package autograd

import (
	"math"

	"aibench/internal/tensor"
)

// SoftmaxRows applies softmax to each row of a 2-D Value.
func SoftmaxRows(a *Value) *Value {
	out := tensor.SoftmaxRows(a.Data)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			rows, cols := out.Dim(0), out.Dim(1)
			ga := tensor.NewLike(out)
			for r := 0; r < rows; r++ {
				base := r * cols
				dot := 0.0
				for c := 0; c < cols; c++ {
					dot += g.Data[base+c] * out.Data[base+c]
				}
				for c := 0; c < cols; c++ {
					ga.Data[base+c] = out.Data[base+c] * (g.Data[base+c] - dot)
				}
			}
			a.accumGrad(ga)
		}
	}
	return node
}

// BatchNorm2D applies training-mode batch normalization to an NCHW Value
// with per-channel scale gamma and shift beta. It returns the normalized
// output and the batch statistics (mean, variance) so the caller can
// update running averages.
func BatchNorm2D(x, gamma, beta *Value, eps float64) (out *Value, batchMean, batchVar *tensor.Tensor) {
	n, c, h, w := x.Data.Dim(0), x.Data.Dim(1), x.Data.Dim(2), x.Data.Dim(3)
	plane := h * w
	m := float64(n * plane)
	ar := tensor.ArenaOf(x.Data, gamma.Data, beta.Data)
	mean := ar.New(c)
	variance := ar.New(c)
	for ch := 0; ch < c; ch++ {
		s := 0.0
		for img := 0; img < n; img++ {
			base := (img*c + ch) * plane
			for k := 0; k < plane; k++ {
				s += x.Data.Data[base+k]
			}
		}
		mu := s / m
		mean.Data[ch] = mu
		v := 0.0
		for img := 0; img < n; img++ {
			base := (img*c + ch) * plane
			for k := 0; k < plane; k++ {
				d := x.Data.Data[base+k] - mu
				v += d * d
			}
		}
		variance.Data[ch] = v / m
	}
	invStd := ar.New(c)
	for ch := 0; ch < c; ch++ {
		invStd.Data[ch] = 1 / math.Sqrt(variance.Data[ch]+eps)
	}
	xhat := ar.New(n, c, h, w)
	o := ar.New(n, c, h, w)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * plane
			mu, is := mean.Data[ch], invStd.Data[ch]
			ga, be := gamma.Data.Data[ch], beta.Data.Data[ch]
			for k := 0; k < plane; k++ {
				xh := (x.Data.Data[base+k] - mu) * is
				xhat.Data[base+k] = xh
				o.Data[base+k] = ga*xh + be
			}
		}
	}
	node := newNode(o, x, gamma, beta)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			dgamma := ar.New(c)
			dbeta := ar.New(c)
			sumDy := ar.New(c)
			sumDyXhat := ar.New(c)
			for img := 0; img < n; img++ {
				for ch := 0; ch < c; ch++ {
					base := (img*c + ch) * plane
					for k := 0; k < plane; k++ {
						gy := g.Data[base+k]
						sumDy.Data[ch] += gy
						sumDyXhat.Data[ch] += gy * xhat.Data[base+k]
					}
				}
			}
			copy(dbeta.Data, sumDy.Data)
			copy(dgamma.Data, sumDyXhat.Data)
			gamma.accumGrad(dgamma)
			beta.accumGrad(dbeta)
			if x.requiresGrad {
				gx := ar.New(n, c, h, w)
				for img := 0; img < n; img++ {
					for ch := 0; ch < c; ch++ {
						base := (img*c + ch) * plane
						ga, is := gamma.Data.Data[ch], invStd.Data[ch]
						sDy, sDyX := sumDy.Data[ch], sumDyXhat.Data[ch]
						for k := 0; k < plane; k++ {
							gy := g.Data[base+k]
							gx.Data[base+k] = ga * is / m * (m*gy - sDy - xhat.Data[base+k]*sDyX)
						}
					}
				}
				x.accumGrad(gx)
			}
		}
	}
	return node, mean, variance
}

// BatchNorm2DInference normalizes with fixed (running) statistics; it is a
// purely element-wise affine transform.
func BatchNorm2DInference(x *Value, gamma, beta *Value, runMean, runVar *tensor.Tensor, eps float64) *Value {
	n, c, h, w := x.Data.Dim(0), x.Data.Dim(1), x.Data.Dim(2), x.Data.Dim(3)
	plane := h * w
	ar := tensor.ArenaOf(x.Data, gamma.Data, beta.Data)
	o := ar.New(n, c, h, w)
	scale := ar.New(c)
	for ch := 0; ch < c; ch++ {
		scale.Data[ch] = gamma.Data.Data[ch] / math.Sqrt(runVar.Data[ch]+eps)
	}
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * plane
			sc, mu, be := scale.Data[ch], runMean.Data[ch], beta.Data.Data[ch]
			for k := 0; k < plane; k++ {
				o.Data[base+k] = sc*(x.Data.Data[base+k]-mu) + be
			}
		}
	}
	node := newNode(o, x)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			if x.requiresGrad {
				gx := ar.New(n, c, h, w)
				for img := 0; img < n; img++ {
					for ch := 0; ch < c; ch++ {
						base := (img*c + ch) * plane
						sc := scale.Data[ch]
						for k := 0; k < plane; k++ {
							gx.Data[base+k] = sc * g.Data[base+k]
						}
					}
				}
				x.accumGrad(gx)
			}
		}
	}
	return node
}

// LayerNorm normalizes each row of a 2-D Value with learnable per-column
// gain and bias, as used by the Transformer workloads.
func LayerNorm(x, gamma, beta *Value, eps float64) *Value {
	rows, cols := x.Data.Dim(0), x.Data.Dim(1)
	d := float64(cols)
	ar := tensor.ArenaOf(x.Data, gamma.Data, beta.Data)
	xhat := ar.New(rows, cols)
	invStd := ar.New(rows).Data
	o := ar.New(rows, cols)
	for r := 0; r < rows; r++ {
		base := r * cols
		mu := 0.0
		for c := 0; c < cols; c++ {
			mu += x.Data.Data[base+c]
		}
		mu /= d
		v := 0.0
		for c := 0; c < cols; c++ {
			dd := x.Data.Data[base+c] - mu
			v += dd * dd
		}
		v /= d
		is := 1 / math.Sqrt(v+eps)
		invStd[r] = is
		for c := 0; c < cols; c++ {
			xh := (x.Data.Data[base+c] - mu) * is
			xhat.Data[base+c] = xh
			o.Data[base+c] = gamma.Data.Data[c]*xh + beta.Data.Data[c]
		}
	}
	node := newNode(o, x, gamma, beta)
	if node.requiresGrad {
		node.back = func(g *tensor.Tensor) {
			dgamma := ar.New(cols)
			dbeta := ar.New(cols)
			for r := 0; r < rows; r++ {
				base := r * cols
				for c := 0; c < cols; c++ {
					dgamma.Data[c] += g.Data[base+c] * xhat.Data[base+c]
					dbeta.Data[c] += g.Data[base+c]
				}
			}
			gamma.accumGrad(dgamma)
			beta.accumGrad(dbeta)
			if x.requiresGrad {
				gx := ar.New(rows, cols)
				for r := 0; r < rows; r++ {
					base := r * cols
					sDy, sDyX := 0.0, 0.0
					for c := 0; c < cols; c++ {
						gy := g.Data[base+c] * gamma.Data.Data[c]
						sDy += gy
						sDyX += gy * xhat.Data[base+c]
					}
					is := invStd[r]
					for c := 0; c < cols; c++ {
						gy := g.Data[base+c] * gamma.Data.Data[c]
						gx.Data[base+c] = is / d * (d*gy - sDy - xhat.Data[base+c]*sDyX)
					}
				}
				x.accumGrad(gx)
			}
		}
	}
	return node
}
