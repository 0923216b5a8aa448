package models

import (
	"math"
	"testing"

	"aibench/internal/workload"
)

func TestRegistryCounts(t *testing.T) {
	if len(AIBenchEntries()) != 17 {
		t.Fatalf("AIBench entries = %d, want 17", len(AIBenchEntries()))
	}
	if len(MLPerfEntries()) != 7 {
		t.Fatalf("MLPerf entries = %d, want 7", len(MLPerfEntries()))
	}
	if len(AllEntries()) != 24 {
		t.Fatalf("total entries = %d, want 24", len(AllEntries()))
	}
	seen := map[string]bool{}
	for _, e := range AllEntries() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestOneSerialPath pins the serial path of every benchmark: the ten
// that keep a serial epoch of their own (the seven serial-only ones,
// and C6, C17 and MLPerf-RL, whose serial algorithm differs from their
// sharded one) run it, and the other fourteen are PhasedTrainers that
// TrainEpoch drives at one grain, with their driver kept on the
// instance.
func TestOneSerialPath(t *testing.T) {
	own := map[string]bool{
		"DC-AI-C4": true, "DC-AI-C6": true, "DC-AI-C8": true, "DC-AI-C12": true, "DC-AI-C13": true,
		"DC-AI-C14": true, "DC-AI-C17": true, "MLPerf-ODL": true, "MLPerf-TR": true, "MLPerf-RL": true,
	}
	driven := 0
	for _, e := range AllEntries() {
		b := e.Factory(1)
		_, self := b.(selfTrained)
		_, phased := b.(PhasedTrainer)
		_, holds := b.(loopHolder)
		switch {
		case self != own[e.ID]:
			t.Errorf("%s: keeps its own serial epoch = %v, want %v", e.ID, self, own[e.ID])
		case !self && !(phased && holds):
			t.Errorf("%s: no serial path (PhasedTrainer %v, keeps a driver %v)", e.ID, phased, holds)
		case !self:
			driven++
		}
	}
	if driven != 14 {
		t.Errorf("%d benchmarks run the one-grain driver, want 14", driven)
	}
}

// TestEveryBenchmarkExecutes builds each of the 24 benchmarks, runs one
// training epoch through the full autograd stack, and sanity-checks the
// quality metric and spec.
func TestEveryBenchmarkExecutes(t *testing.T) {
	for _, e := range AllEntries() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			b := e.Factory(42)
			if b.Name() == "" {
				t.Fatal("empty name")
			}
			loss := TrainEpoch(b)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				t.Fatalf("loss = %g", loss)
			}
			q := b.Quality()
			if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
				t.Fatalf("quality = %g", q)
			}
			if len(b.Module().Params()) == 0 {
				t.Fatal("no parameters")
			}
			spec := b.Spec()
			if len(spec.Layers) == 0 {
				t.Fatal("empty spec")
			}
			if spec.FLOPs() <= 0 || spec.Params() <= 0 {
				t.Fatalf("spec FLOPs=%g params=%d", spec.FLOPs(), spec.Params())
			}
		})
	}
}

// TestTrainingImprovesLoss verifies gradient descent is actually working
// end to end for a representative sample of architectures: the loss
// after several epochs must drop below the first epoch's.
func TestTrainingImprovesLoss(t *testing.T) {
	cases := []struct {
		id     string
		mk     func() Benchmark
		epochs int
	}{
		{"cnn", func() Benchmark { return NewImageClassification(1) }, 4},
		{"transformer", func() Benchmark { return NewTextToText(1) }, 6},
		{"lstm-attn", func() Benchmark { return NewTextSummarization(1) }, 6},
		{"gru-asr", func() Benchmark { return NewSpeechRecognition(1) }, 6},
		{"ncf", func() Benchmark { return NewRecommendation(1) }, 6},
		{"recon3d", func() Benchmark { return NewRecon3D(1) }, 6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			b := c.mk()
			first := TrainEpoch(b)
			last := first
			for i := 1; i < c.epochs; i++ {
				last = TrainEpoch(b)
			}
			if last >= first {
				t.Fatalf("loss did not improve: first %g, last %g", first, last)
			}
		})
	}
}

// TestFastBenchmarksReachTarget trains the quick benchmarks to their
// scaled quality targets — the integration proof that entire scaled
// training sessions complete.
func TestFastBenchmarksReachTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("training sessions skipped in -short mode")
	}
	cases := []struct {
		id        string
		mk        func() Benchmark
		maxEpochs int
	}{
		{"DC-AI-C1", func() Benchmark { return NewImageClassification(42) }, 15},
		{"DC-AI-C3", func() Benchmark { return NewTextToText(42) }, 40},
		{"DC-AI-C6", func() Benchmark { return NewSpeechRecognition(42) }, 20},
		{"DC-AI-C10", func() Benchmark { return NewRecommendation(42) }, 60},
		{"DC-AI-C14", func() Benchmark { return NewTextSummarization(42) }, 60},
		{"DC-AI-C16", func() Benchmark { return NewLearningToRank(42) }, 60},
		{"MLPerf-RL", func() Benchmark { return NewReinforcementLearning(42) }, 40},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			b := c.mk()
			for ep := 0; ep < c.maxEpochs; ep++ {
				TrainEpoch(b)
				if MeetsTarget(b, b.Quality()) {
					return
				}
			}
			t.Fatalf("did not reach target %g within %d epochs (last quality %g)",
				b.ScaledTarget(), c.maxEpochs, b.Quality())
		})
	}
}

func TestMeetsTargetDirections(t *testing.T) {
	ic := NewImageClassification(1) // higher is better, target 0.90
	if MeetsTarget(ic, 0.5) || !MeetsTarget(ic, 0.95) {
		t.Fatal("higher-is-better direction wrong")
	}
	sr := NewSpeechRecognition(1) // lower is better, target 0.235
	if MeetsTarget(sr, 0.5) || !MeetsTarget(sr, 0.1) {
		t.Fatal("lower-is-better direction wrong")
	}
}

// TestSpecComplexityRanges checks the paper-scale analytic numbers match
// Section 5.2.1: AIBench parameters span ~0.03M to ~68.4M, Faster R-CNN
// and 3D reconstruction carry the largest FLOPs, Learning-to-Rank the
// smallest, Image-to-Text the most parameters, Spatial Transformer the
// fewest.
func TestSpecComplexityRanges(t *testing.T) {
	specs := map[string]workload.Model{}
	for _, e := range AIBenchEntries() {
		specs[e.ID] = e.Factory(1).Spec()
	}
	params := func(id string) float64 { return float64(specs[id].Params()) / 1e6 }
	flops := func(id string) float64 { return specs[id].FLOPs() / 1e6 }

	// Spatial Transformer ≈ 0.03M params (paper's least complex model).
	if p := params("DC-AI-C15"); p > 0.15 {
		t.Fatalf("STN params = %.3fM, want ≈0.03M", p)
	}
	// Image-to-Text ≈ 68.4M params (paper's most complex model).
	if p := params("DC-AI-C4"); math.Abs(p-68.4) > 14 {
		t.Fatalf("Image-to-Text params = %.1fM, want ≈68.4M", p)
	}
	// Most-complex / least-complex ordering.
	for id := range specs {
		if id == "DC-AI-C4" {
			continue
		}
		if params(id) > params("DC-AI-C4") {
			t.Fatalf("%s params %.1fM exceed Image-to-Text", id, params(id))
		}
	}
	// Learning-to-Rank has the smallest FLOPs (~0.09 M-FLOPs).
	for id := range specs {
		if id == "DC-AI-C16" {
			continue
		}
		if flops(id) < flops("DC-AI-C16") {
			t.Fatalf("%s FLOPs %.3fM below Learning-to-Rank's %.3fM", id, flops(id), flops("DC-AI-C16"))
		}
	}
	if f := flops("DC-AI-C16"); f > 1 {
		t.Fatalf("Learning-to-Rank FLOPs = %.3fM, want ≈0.09M", f)
	}
	// Object Detection and 3D Reconstruction have the largest FLOPs and
	// are approximately equal (paper: "approximate amounts").
	od, rc := flops("DC-AI-C9"), flops("DC-AI-C13")
	for id := range specs {
		if id == "DC-AI-C9" || id == "DC-AI-C13" {
			continue
		}
		if flops(id) > math.Max(od, rc) {
			t.Fatalf("%s FLOPs %.0fM exceed the detection/reconstruction pair", id, flops(id))
		}
	}
	if ratio := od / rc; ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("OD/3D FLOPs ratio = %.2f, want ≈1", ratio)
	}
	// Paper: AIBench FLOPs range 0.09..157802 M-FLOPs.
	if od < 50000 || od > 320000 {
		t.Fatalf("Object Detection FLOPs = %.0fM, want ≈157802M scale", od)
	}
}

func TestSharedBenchmarksConsistent(t *testing.T) {
	// The paper notes AIBench and MLPerf share Image Classification and
	// Recommendation models/datasets: specs must match.
	a := NewImageClassification(1).Spec()
	m := NewMLPerfImageClassification(1).Spec()
	if a.FLOPs() != m.FLOPs() || a.Params() != m.Params() {
		t.Fatal("shared image classification specs differ")
	}
	ar := NewRecommendation(1).Spec()
	mr := NewMLPerfRecommendation(1).Spec()
	if ar.FLOPs() != mr.FLOPs() || ar.Params() != mr.Params() {
		t.Fatal("shared recommendation specs differ")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := NewImageClassification(5)
	b := NewImageClassification(5)
	pa, pb := a.Module().Params(), b.Module().Params()
	for i := range pa {
		for j := range pa[i].Value.Data.Data {
			if pa[i].Value.Data.Data[j] != pb[i].Value.Data.Data[j] {
				t.Fatal("same seed should give identical init")
			}
		}
	}
}

func TestNASSearchSpace(t *testing.T) {
	n := NewNAS(3)
	arch, ppl := n.BestArchitecture(4)
	if ppl <= 0 {
		t.Fatalf("perplexity = %g", ppl)
	}
	for d, c := range arch {
		if c < 0 || c >= archChoices[d] {
			t.Fatalf("decision %d out of range: %d", d, c)
		}
	}
}

func TestDetectorNMSSuppressesDuplicates(t *testing.T) {
	b := NewObjectDetection(3)
	// Three epochs is enough to produce some detections.
	for i := 0; i < 3; i++ {
		TrainEpoch(b)
	}
	results := b.Detect(b.evalX)
	// After NMS, no two same-class detections in one image may overlap
	// by IoU >= 0.4.
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			a, c := results[i], results[j]
			if a.Image == c.Image && a.Box.Class == c.Box.Class && a.Box.IoU(c.Box) >= 0.4 {
				t.Fatal("NMS left overlapping duplicates")
			}
		}
	}
}
