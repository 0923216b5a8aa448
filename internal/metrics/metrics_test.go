package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aibench/internal/data"
)

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3}, []int{1, 0, 3}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %g", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestWERKnownCases(t *testing.T) {
	if got := WER([]int{1, 2, 3}, []int{1, 2, 3}); got != 0 {
		t.Fatalf("identical WER = %g", got)
	}
	// One substitution over 3 reference words.
	if got := WER([]int{1, 9, 3}, []int{1, 2, 3}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("WER = %g", got)
	}
	// Deletion and insertion.
	if got := WER([]int{1, 3}, []int{1, 2, 3}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("deletion WER = %g", got)
	}
	if got := WER([]int{1, 2, 2, 3}, []int{1, 2, 3}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("insertion WER = %g", got)
	}
}

func TestWERProperties(t *testing.T) {
	f := func(a, b []uint8) bool {
		ha := make([]int, len(a)%6)
		rb := make([]int, len(b)%6+1)
		for i := range ha {
			ha[i] = int(a[i] % 4)
		}
		for i := range rb {
			if i < len(b) {
				rb[i] = int(b[i] % 4)
			}
		}
		w := WER(ha, rb)
		return w >= 0 && WER(rb, rb) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBLEUPerfectAndZero(t *testing.T) {
	ref := [][]int{{1, 2, 3, 4, 5, 6}}
	if got := BLEU(ref, ref); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect BLEU = %g", got)
	}
	if got := BLEU([][]int{{9, 9, 9, 9, 9}}, ref); got != 0 {
		t.Fatalf("disjoint BLEU = %g", got)
	}
	// Partial overlap (one matching 4-gram) should land strictly between.
	part := BLEU([][]int{{1, 2, 3, 4, 9, 9}}, ref)
	if part <= 0 || part >= 1 {
		t.Fatalf("partial BLEU = %g", part)
	}
	// Without any matching 4-gram, unsmoothed BLEU is 0.
	if got := BLEU([][]int{{1, 2, 3, 9, 9, 9}}, ref); got != 0 {
		t.Fatalf("no-4gram BLEU = %g, want 0", got)
	}
}

func TestRougeL(t *testing.T) {
	ref := []int{1, 2, 3, 4}
	if got := RougeL(ref, ref); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect RougeL = %g", got)
	}
	if got := RougeL([]int{9, 8}, ref); got != 0 {
		t.Fatalf("disjoint RougeL = %g", got)
	}
	mid := RougeL([]int{1, 9, 3}, ref)
	if mid <= 0 || mid >= 1 {
		t.Fatalf("partial RougeL = %g", mid)
	}
}

func TestHRAtK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.3, 0.8}
	if HRAtK(scores, 1, 1) != 1 {
		t.Fatal("best item should hit at k=1")
	}
	if HRAtK(scores, 0, 2) != 0 {
		t.Fatal("worst item should miss at k=2")
	}
	if HRAtK(scores, 0, 4) != 1 {
		t.Fatal("every item hits at k=n")
	}
}

func TestPrecisionAtK(t *testing.T) {
	got := PrecisionAtK([]int{5, 3, 9, 1}, []int{3, 1, 7}, 4)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("P@4 = %g", got)
	}
}

func TestVoxelIoU(t *testing.T) {
	pred := []float64{1, 1, 0, 0}
	truth := []float64{1, 0, 1, 0}
	if got := VoxelIoU(pred, truth, 0.5); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("IoU = %g", got)
	}
	if VoxelIoU([]float64{0, 0}, []float64{0, 0}, 0.5) != 1 {
		t.Fatal("empty-vs-empty should be 1")
	}
}

func TestPixelAccuracy(t *testing.T) {
	pred := []int{0, 0, 1, 1}
	truth := []int{0, 1, 1, 1}
	if got := PixelAccuracy(pred, truth); got != 0.75 {
		t.Fatalf("pixel acc = %g", got)
	}
}

func TestSSIMIdentityAndDegradation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := make([]float64, 16*16)
	for i := range img {
		img[i] = rng.Float64()
	}
	if got := SSIM(img, img, 16); math.Abs(got-1) > 1e-9 {
		t.Fatalf("self SSIM = %g", got)
	}
	noisy := make([]float64, len(img))
	for i := range noisy {
		noisy[i] = img[i] + 0.5*rng.NormFloat64()
	}
	if got := SSIM(img, noisy, 16); got >= 0.9 {
		t.Fatalf("noisy SSIM = %g, should degrade", got)
	}
}

func TestMSSSIMOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	img := make([]float64, 16*16)
	for i := range img {
		img[i] = rng.Float64()
	}
	self := MSSSIM(img, img, 16)
	if math.Abs(self-1) > 1e-9 {
		t.Fatalf("self MS-SSIM = %g", self)
	}
	slight := make([]float64, len(img))
	heavy := make([]float64, len(img))
	for i := range img {
		slight[i] = img[i] + 0.05*rng.NormFloat64()
		heavy[i] = img[i] + 0.8*rng.NormFloat64()
	}
	s, h := MSSSIM(img, slight, 16), MSSSIM(img, heavy, 16)
	if !(self >= s && s > h) {
		t.Fatalf("ordering violated: self %g slight %g heavy %g", self, s, h)
	}
}

func TestEMDistance1D(t *testing.T) {
	a := []float64{0, 1, 2}
	b := []float64{1, 2, 3}
	if got := EMDistance1D(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("EM = %g", got)
	}
	if got := EMDistance1D(a, []float64{2, 0, 1}); got != 0 {
		t.Fatalf("permutation EM = %g", got)
	}
}

func TestSlicedEMDistanceSeparatesDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(mean float64) [][]float64 {
		s := make([][]float64, 64)
		for i := range s {
			s[i] = []float64{mean + 0.1*rng.NormFloat64(), mean + 0.1*rng.NormFloat64()}
		}
		return s
	}
	same := SlicedEMDistance(mk(0), mk(0), 8)
	far := SlicedEMDistance(mk(0), mk(3), 8)
	if same >= far {
		t.Fatalf("same %g >= far %g", same, far)
	}
	if far < 1 {
		t.Fatalf("far distributions EM = %g, too small", far)
	}
}

func TestMeanAPPerfectDetections(t *testing.T) {
	truth := [][]data.Box{
		{{X: 0, Y: 0, W: 4, H: 4, Class: 0}, {X: 8, Y: 8, W: 4, H: 4, Class: 1}},
		{{X: 2, Y: 2, W: 4, H: 4, Class: 0}},
	}
	var results []DetectionResult
	for img, boxes := range truth {
		for _, b := range boxes {
			results = append(results, DetectionResult{Box: b, Score: 0.9, Image: img})
		}
	}
	if got := MeanAP(results, truth, 2, 0.5); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect mAP = %g", got)
	}
}

func TestMeanAPPunishesFalsePositives(t *testing.T) {
	truth := [][]data.Box{{{X: 0, Y: 0, W: 4, H: 4, Class: 0}}}
	good := []DetectionResult{{Box: data.Box{X: 0, Y: 0, W: 4, H: 4, Class: 0}, Score: 0.9, Image: 0}}
	// A higher-confidence false positive ranked first lowers AP.
	bad := append([]DetectionResult{
		{Box: data.Box{X: 10, Y: 10, W: 4, H: 4, Class: 0}, Score: 0.95, Image: 0},
	}, good...)
	g := MeanAP(good, truth, 1, 0.5)
	b := MeanAP(bad, truth, 1, 0.5)
	if !(g == 1 && b < g) {
		t.Fatalf("good %g bad %g", g, b)
	}
}

func TestMeanAPLocalizationThreshold(t *testing.T) {
	truth := [][]data.Box{{{X: 0, Y: 0, W: 10, H: 10, Class: 0}}}
	// Offset box with IoU ~ 0.47 (overlap 7x7=49; union 100+100-49=151 → 0.32).
	off := []DetectionResult{{Box: data.Box{X: 3, Y: 3, W: 10, H: 10, Class: 0}, Score: 0.9, Image: 0}}
	if got := MeanAP(off, truth, 1, 0.5); got != 0 {
		t.Fatalf("poorly localized mAP = %g, want 0", got)
	}
	if got := MeanAP(off, truth, 1, 0.2); got != 1 {
		t.Fatalf("loose-threshold mAP = %g, want 1", got)
	}
}
