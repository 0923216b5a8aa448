package metrics

import (
	"math"
	"sort"
)

// SSIM computes the structural similarity index of two single-channel
// images (flattened, with the given width) using an 8×8 sliding window,
// following Wang et al. 2004.
func SSIM(a, b []float64, width int) float64 {
	height := len(a) / width
	const win = 8
	const c1 = 0.01 * 0.01
	const c2 = 0.03 * 0.03
	if height < win || width < win {
		return ssimWindow(a, b)
	}
	total, count := 0.0, 0
	for y := 0; y+win <= height; y += win / 2 {
		for x := 0; x+win <= width; x += win / 2 {
			wa := make([]float64, 0, win*win)
			wb := make([]float64, 0, win*win)
			for dy := 0; dy < win; dy++ {
				for dx := 0; dx < win; dx++ {
					wa = append(wa, a[(y+dy)*width+x+dx])
					wb = append(wb, b[(y+dy)*width+x+dx])
				}
			}
			total += ssimWindowC(wa, wb, c1, c2)
			count++
		}
	}
	return total / float64(count)
}

func ssimWindow(a, b []float64) float64 {
	return ssimWindowC(a, b, 0.01*0.01, 0.03*0.03)
}

func ssimWindowC(a, b []float64, c1, c2 float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var va, vb, cov float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		va += da * da
		vb += db * db
		cov += da * db
	}
	va /= n
	vb /= n
	cov /= n
	return ((2*ma*mb + c1) * (2*cov + c2)) / ((ma*ma + mb*mb + c1) * (va + vb + c2))
}

// MSSSIM computes multi-scale SSIM with three dyadic scales (the Image
// Compression workload quality metric). Images are single-channel,
// row-major, with the given width.
func MSSSIM(a, b []float64, width int) float64 {
	weights := []float64{0.4, 0.35, 0.25}
	score := 0.0
	ca, cb, cw := a, b, width
	for s, w := range weights {
		score += w * SSIM(ca, cb, cw)
		if s < len(weights)-1 {
			if cw < 4 || len(ca)/cw < 4 {
				// Cannot downsample further; reuse the current scale.
				continue
			}
			ca, cb, cw = downsample2(ca, cw), downsample2(cb, cw), cw/2
		}
	}
	return score
}

// downsample2 halves resolution by 2×2 averaging.
func downsample2(img []float64, width int) []float64 {
	height := len(img) / width
	nw, nh := width/2, height/2
	out := make([]float64, nw*nh)
	for y := 0; y < nh; y++ {
		for x := 0; x < nw; x++ {
			out[y*nw+x] = (img[(2*y)*width+2*x] + img[(2*y)*width+2*x+1] +
				img[(2*y+1)*width+2*x] + img[(2*y+1)*width+2*x+1]) / 4
		}
	}
	return out
}

// EMDistance1D computes the exact 1-D Earth-Mover (Wasserstein-1) distance
// between two equal-size empirical samples: the mean absolute difference
// of sorted values. The WGAN workload's loss estimates exactly this
// quantity, so the quality target (EM ≈ 0.5) is checked against it.
func EMDistance1D(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	s := 0.0
	for i := range as {
		s += math.Abs(as[i] - bs[i])
	}
	return s / float64(len(as))
}

// SlicedEMDistance approximates the Wasserstein distance between two sets
// of d-dimensional samples by averaging 1-D EM distances along random
// projections (deterministic directions derived from the index).
func SlicedEMDistance(a, b [][]float64, projections int) float64 {
	if len(a) == 0 || len(b) == 0 || len(a) != len(b) {
		return math.NaN()
	}
	d := len(a[0])
	total := 0.0
	for p := 0; p < projections; p++ {
		// Deterministic quasi-random direction.
		dir := make([]float64, d)
		norm := 0.0
		for i := range dir {
			dir[i] = math.Sin(float64(p*d+i+1) * 12.9898)
			norm += dir[i] * dir[i]
		}
		norm = math.Sqrt(norm)
		pa := make([]float64, len(a))
		pb := make([]float64, len(b))
		for i := range a {
			for j := 0; j < d; j++ {
				pa[i] += a[i][j] * dir[j] / norm
				pb[i] += b[i][j] * dir[j] / norm
			}
		}
		total += EMDistance1D(pa, pb)
	}
	return total / float64(projections)
}
