// Package stats provides the descriptive statistics the evaluation
// harness needs: mean, standard deviation, coefficient of variation
// (the paper's run-to-run variation measure in Table 5) and quantiles.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator), the
// convention used when quantifying repeat-measurement variation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// CV returns the coefficient of variation — the ratio of the standard
// deviation to the mean — which is exactly how Table 5 reports run-to-run
// variation. Returns 0 when the mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(m)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Normalize scales xs to zero mean and unit variance in place; constant
// vectors become all-zero. Returns the original mean and std.
func Normalize(xs []float64) (mean, std float64) {
	mean = Mean(xs)
	std = StdDev(xs)
	for i := range xs {
		if std > 0 {
			xs[i] = (xs[i] - mean) / std
		} else {
			xs[i] = 0
		}
	}
	return mean, std
}
