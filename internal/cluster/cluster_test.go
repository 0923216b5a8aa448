package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// threeBlobs generates three well-separated Gaussian clusters.
func threeBlobs(rng *rand.Rand, perCluster int) (points [][]float64, truth []int) {
	centers := [][]float64{{0, 0, 0}, {10, 10, 0}, {0, 10, 10}}
	for c, center := range centers {
		for i := 0; i < perCluster; i++ {
			p := make([]float64, 3)
			for j := range p {
				p[j] = center[j] + 0.5*rng.NormFloat64()
			}
			points = append(points, p)
			truth = append(truth, c)
		}
	}
	return points, truth
}

// clusteringAgrees checks the assignment matches truth up to relabeling.
func clusteringAgrees(assign, truth []int, k int) bool {
	// Each true cluster must map to a single predicted label, injectively.
	mapping := map[int]int{}
	used := map[int]bool{}
	for c := 0; c < k; c++ {
		votes := map[int]int{}
		for i := range truth {
			if truth[i] == c {
				votes[assign[i]]++
			}
		}
		best, bestN := -1, 0
		for a, n := range votes {
			if n > bestN {
				best, bestN = a, n
			}
		}
		if used[best] {
			return false
		}
		used[best] = true
		mapping[c] = best
	}
	for i := range truth {
		if assign[i] != mapping[truth[i]] {
			return false
		}
	}
	return true
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points, truth := threeBlobs(rng, 15)
	assign, centroids := KMeans(rng, points, 3, 50)
	if len(centroids) != 3 {
		t.Fatalf("centroids = %d", len(centroids))
	}
	if !clusteringAgrees(assign, truth, 3) {
		t.Fatal("k-means failed to recover well-separated blobs")
	}
}

func TestKMeansHandlesKGreaterThanN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	points := [][]float64{{0, 0}, {1, 1}}
	assign, centroids := KMeans(rng, points, 5, 10)
	if len(assign) != 2 || len(centroids) != 2 {
		t.Fatalf("assign %d centroids %d", len(assign), len(centroids))
	}
}

func TestSilhouetteOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points, truth := threeBlobs(rng, 10)
	good := Silhouette(points, truth, 3)
	// Random assignment should score much worse.
	bad := make([]int, len(points))
	for i := range bad {
		bad[i] = rng.Intn(3)
	}
	badScore := Silhouette(points, bad, 3)
	if good < 0.7 {
		t.Fatalf("good silhouette = %g, want > 0.7", good)
	}
	if badScore >= good {
		t.Fatalf("random assignment silhouette %g >= true %g", badScore, good)
	}
}

func TestTSNESeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	points, truth := threeBlobs(rng, 8)
	cfg := DefaultTSNEConfig()
	Y := TSNE(points, cfg)
	if len(Y) != len(points) {
		t.Fatalf("embedding size %d", len(Y))
	}
	// Clustering the 2-D embedding should still recover the blobs.
	assign, _ := KMeans(rng, Y, 3, 50)
	if !clusteringAgrees(assign, truth, 3) {
		t.Fatal("t-SNE embedding lost cluster structure")
	}
	// Mean within-cluster distance should be well below between-cluster.
	var within, between float64
	var wn, bn int
	for i := range Y {
		for j := i + 1; j < len(Y); j++ {
			d := math.Sqrt(sqDist(Y[i], Y[j]))
			if truth[i] == truth[j] {
				within += d
				wn++
			} else {
				between += d
				bn++
			}
		}
	}
	if within/float64(wn) >= between/float64(bn) {
		t.Fatalf("within %g >= between %g", within/float64(wn), between/float64(bn))
	}
}

func TestTSNEDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points, _ := threeBlobs(rng, 5)
	cfg := DefaultTSNEConfig()
	a := TSNE(points, cfg)
	b := TSNE(points, cfg)
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatal("same seed should give identical embeddings")
		}
	}
}

func TestTSNETinyInputs(t *testing.T) {
	if out := TSNE(nil, DefaultTSNEConfig()); out != nil {
		t.Fatal("empty input should return nil")
	}
	one := TSNE([][]float64{{1, 2, 3}}, DefaultTSNEConfig())
	if len(one) != 1 {
		t.Fatal("single point should embed")
	}
}
