package dist

import (
	"math"
	"testing"
)

func TestLinearReduceOrder(t *testing.T) {
	vecs := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	w := []float64{0.5, 0.25, 0.25}
	dst := make([]float64, 2)
	Reduce(vecs, w, dst)
	want := []float64{(0.5*1 + 0.25*2) + 0.25*3, (0.5*10 + 0.25*20) + 0.25*30}
	for j := range want {
		if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
			t.Fatalf("linear dst[%d] = %v, want %v", j, dst[j], want[j])
		}
	}
}

func TestReduceScalarVectors(t *testing.T) {
	// Per-grain losses ride the same all-reduce as gradients, as
	// length-1 vectors.
	vecs := [][]float64{{2}, {4}, {6}}
	var dst [1]float64
	Reduce(vecs, []float64{0.5, 0.25, 0.25}, dst[:])
	want := (0.5*2 + 0.25*4) + 0.25*6

	if math.Float64bits(dst[0]) != math.Float64bits(want) {
		t.Fatalf("scalar reduce = %v, want %v", dst[0], want)
	}
}

func TestGrainWeightingHandlesUnevenGrains(t *testing.T) {
	// A 10-sample batch in 8 grains yields grain sizes 1,1,1,1,1,1,2,2;
	// Reduce must weight by sample count, i.e. Σw = 1.
	w := []float64{1.0 / 10, 1.0 / 10, 1.0 / 10, 1.0 / 10, 1.0 / 10, 1.0 / 10, 2.0 / 10, 2.0 / 10}
	vecs := make([][]float64, len(w))
	for i := range vecs {
		vecs[i] = []float64{1}
	}
	dst := make([]float64, 1)
	Reduce(vecs, w, dst)
	if math.Abs(dst[0]-1) > 1e-15 {
		t.Fatalf("uneven-grain weights do not sum to 1: %v", dst[0])
	}
}
