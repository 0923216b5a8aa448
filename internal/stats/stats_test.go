package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStdCV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %g", m)
	}
	// Sample std of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7)
	if s := StdDev(xs); math.Abs(s-want) > 1e-12 {
		t.Fatalf("StdDev = %g, want %g", s, want)
	}
	if cv := CV(xs); math.Abs(cv-want/5) > 1e-12 {
		t.Fatalf("CV = %g", cv)
	}
}

func TestCVZeroForConstant(t *testing.T) {
	if cv := CV([]float64{3, 3, 3, 3}); cv != 0 {
		t.Fatalf("constant CV = %g", cv)
	}
	if cv := CV([]float64{0, 0}); cv != 0 {
		t.Fatalf("zero-mean CV = %g", cv)
	}
}

func TestCVScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 8)
		for i := range xs {
			xs[i] = 1 + rng.Float64()
		}
		scaled := make([]float64, 8)
		for i := range xs {
			scaled[i] = 7 * xs[i]
		}
		return math.Abs(CV(xs)-CV(scaled)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %g", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %g", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %g", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25 = %g", q)
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	Normalize(xs)
	if m := Mean(xs); math.Abs(m) > 1e-12 {
		t.Fatalf("normalized mean = %g", m)
	}
	if s := StdDev(xs); math.Abs(s-1) > 1e-12 {
		t.Fatalf("normalized std = %g", s)
	}
	c := []float64{4, 4}
	Normalize(c)
	if c[0] != 0 || c[1] != 0 {
		t.Fatal("constant vector should normalize to zeros")
	}
}
