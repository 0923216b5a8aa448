// Package cluster implements the dimensionality-reduction and clustering
// machinery the paper uses to validate the AIBench subset: t-SNE
// (Fig 4's embedding of the seventeen benchmarks) plus k-means and
// silhouette scoring to identify the three clusters.
package cluster

import (
	"math"
	"math/rand"
)

// KMeans clusters points into k groups with Lloyd's algorithm and
// k-means++ seeding. Returns the assignment per point and the centroids.
func KMeans(rng *rand.Rand, points [][]float64, k, iters int) (assign []int, centroids [][]float64) {
	n := len(points)
	if n == 0 || k <= 0 {
		return nil, nil
	}
	if k > n {
		k = n
	}
	d := len(points[0])
	centroids = kmeansPlusPlus(rng, points, k)
	assign = make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if dist := sqDist(p, centroids[c]); dist < bestD {
					best, bestD = c, dist
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, k)
		next := make([][]float64, k)
		for c := range next {
			next[c] = make([]float64, d)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j := range p {
				next[c][j] += p[j]
			}
		}
		for c := range next {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(next[c], points[rng.Intn(n)])
				continue
			}
			for j := range next[c] {
				next[c][j] /= float64(counts[c])
			}
		}
		centroids = next
		if !changed && it > 0 {
			break
		}
	}
	return assign, centroids
}

// kmeansPlusPlus seeds centroids proportional to squared distance.
func kmeansPlusPlus(rng *rand.Rand, points [][]float64, k int) [][]float64 {
	centroids := [][]float64{append([]float64(nil), points[rng.Intn(len(points))]...)}
	for len(centroids) < k {
		dists := make([]float64, len(points))
		total := 0.0
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		if total == 0 {
			centroids = append(centroids, append([]float64(nil), points[rng.Intn(len(points))]...))
			continue
		}
		u := rng.Float64() * total
		acc := 0.0
		for i, dd := range dists {
			acc += dd
			if acc >= u {
				centroids = append(centroids, append([]float64(nil), points[i]...))
				break
			}
		}
	}
	return centroids
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Silhouette returns the mean silhouette coefficient of a clustering, in
// [-1, 1]; higher means tighter, better-separated clusters.
func Silhouette(points [][]float64, assign []int, k int) float64 {
	n := len(points)
	if n < 2 {
		return 0
	}
	total, counted := 0.0, 0
	for i := range points {
		var aSum float64
		aCount := 0
		bBest := math.Inf(1)
		for c := 0; c < k; c++ {
			var sum float64
			count := 0
			for j := range points {
				if i == j || assign[j] != c {
					continue
				}
				sum += math.Sqrt(sqDist(points[i], points[j]))
				count++
			}
			if count == 0 {
				continue
			}
			mean := sum / float64(count)
			if c == assign[i] {
				aSum, aCount = mean, count
			} else if mean < bBest {
				bBest = mean
			}
		}
		if aCount == 0 || math.IsInf(bBest, 1) {
			continue
		}
		m := math.Max(aSum, bBest)
		if m > 0 {
			total += (bBest - aSum) / m
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
