package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"aibench/internal/gpusim"
)

func TestRegistryComplete(t *testing.T) {
	r := NewRegistry()
	if len(r.AIBench) != 17 || len(r.MLPerf) != 7 {
		t.Fatalf("registry sizes %d/%d", len(r.AIBench), len(r.MLPerf))
	}
	if b := r.ByID("DC-AI-C9"); b == nil || b.Task != "Object detection" {
		t.Fatal("ByID lookup failed")
	}
	if r.ByID("nope") != nil {
		t.Fatal("ByID should return nil for unknown id")
	}
	sub := r.Subset()
	if len(sub) != 3 {
		t.Fatalf("subset size %d", len(sub))
	}
	want := map[string]bool{"DC-AI-C1": true, "DC-AI-C9": true, "DC-AI-C16": true}
	for _, b := range sub {
		if !want[b.ID] {
			t.Fatalf("unexpected subset member %s", b.ID)
		}
	}
}

func TestCostSummaryMatchesPaper(t *testing.T) {
	r := NewRegistry()
	c := r.Costs()
	// Paper Section 5.3.2 and 5.4.2 headline numbers.
	if math.Abs(c.AIBenchFullHours-225.41) > 1 {
		t.Fatalf("AIBench full = %.2f h, want ≈225.4", c.AIBenchFullHours)
	}
	if c.MLPerfHours < 360 || c.MLPerfHours > 365 {
		t.Fatalf("MLPerf = %.2f h, want >362", c.MLPerfHours)
	}
	if math.Abs(c.SubsetVsAIBench-0.41) > 0.015 {
		t.Fatalf("subset vs AIBench = %.3f, want ≈0.41", c.SubsetVsAIBench)
	}
	if math.Abs(c.SubsetVsMLPerf-0.63) > 0.015 {
		t.Fatalf("subset vs MLPerf = %.3f, want ≈0.63", c.SubsetVsMLPerf)
	}
	if math.Abs(c.AIBenchVsMLPerf-0.37) > 0.015 {
		t.Fatalf("AIBench vs MLPerf = %.3f, want ≈0.37", c.AIBenchVsMLPerf)
	}
	// Top-three most expensive: IC + SR + 3DFR ≈ 184.8 hours.
	if math.Abs(c.TopThreeHours-184.8) > 1 {
		t.Fatalf("top three = %.1f h, want ≈184.8", c.TopThreeHours)
	}
}

func TestVariationReplayMatchesTable5(t *testing.T) {
	r := NewRegistry()
	for _, b := range r.AIBench {
		res := b.MeasureVariation(1234)
		if b.VariationCV < 0 {
			if res.Measured >= 0 {
				t.Fatalf("%s: expected N/A variation", b.ID)
			}
			continue
		}
		if b.VariationCV == 0 {
			if res.Measured != 0 {
				t.Fatalf("%s: object detection should replay 0%% CV", b.ID)
			}
			continue
		}
		// With the paper's small repeat counts the CV estimate is noisy;
		// require the right order of magnitude.
		if res.Measured <= 0 {
			t.Fatalf("%s: measured CV %g", b.ID, res.Measured)
		}
		if ratio := res.Measured / b.VariationCV; ratio < 0.2 || ratio > 3.5 {
			t.Fatalf("%s: measured CV %.4f vs paper %.4f (ratio %.2f)", b.ID, res.Measured, b.VariationCV, ratio)
		}
	}
}

func TestEpochsToQualityDeterministicAndPositive(t *testing.T) {
	r := NewRegistry()
	b := r.ByID("DC-AI-C3")
	if b.EpochsToQuality(7) != b.EpochsToQuality(7) {
		t.Fatal("same seed should reproduce")
	}
	for seed := int64(0); seed < 50; seed++ {
		if e := b.EpochsToQuality(seed); e < 1 {
			t.Fatalf("epochs %g < 1", e)
		}
	}
}

func TestScaledSessionEntireVsQuasi(t *testing.T) {
	r := NewRegistry()
	b := r.ByID("DC-AI-C16") // fastest scaled benchmark
	entire, err := b.runSession(context.Background(), Plan{Session: EntireSession, Epochs: 60}, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !entire.ReachedGoal {
		t.Fatalf("entire session missed target: quality %.3f target %.3f", entire.FinalQuality, entire.Target)
	}
	quasi, err := b.runSession(context.Background(), Plan{Session: QuasiEntireSession, Epochs: 5}, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if quasi.Epochs != 5 {
		t.Fatalf("quasi-entire session ran %d epochs, want 5", quasi.Epochs)
	}
}

func TestSelectSubsetRederivesPaperChoice(t *testing.T) {
	r := NewRegistry()
	chosen, table := r.SelectSubset()
	if len(chosen) != 3 {
		t.Fatalf("chose %d benchmarks", len(chosen))
	}
	ids := map[string]bool{}
	for _, b := range chosen {
		ids[b.ID] = true
	}
	for _, want := range []string{"DC-AI-C1", "DC-AI-C9", "DC-AI-C16"} {
		if !ids[want] {
			t.Fatalf("subset missing %s (got %v)", want, ids)
		}
	}
	// GAN benchmarks must be rejected for lacking a metric.
	for _, c := range table {
		if (c.ID == "DC-AI-C2" || c.ID == "DC-AI-C5") && c.RejectionNote == "" {
			t.Fatalf("%s should be rejected (no accepted metric)", c.ID)
		}
		if c.Selected && c.CV >= 0.02 {
			t.Fatalf("%s selected with CV %.3f >= 2%%", c.ID, c.CV)
		}
	}
}

func TestClusterBenchmarksFig4(t *testing.T) {
	r := NewRegistry()
	res := r.ClusterBenchmarks(3, 1)
	if len(res.IDs) != 17 || len(res.Assignment) != 17 {
		t.Fatalf("clustered %d benchmarks", len(res.IDs))
	}
	counts := map[int]int{}
	for _, a := range res.Assignment {
		counts[a]++
	}
	if len(counts) != 3 {
		t.Fatalf("got %d clusters, want 3", len(counts))
	}
	if !res.SubsetCoversAll {
		t.Fatalf("subset members map to clusters %v, want three distinct", res.SubsetClusters)
	}
}

func TestCharacterizationSane(t *testing.T) {
	r := NewRegistry()
	c := r.ByID("DC-AI-C1").Characterize(gpusim.TitanXP())
	if c.MFLOPs < 1000 {
		t.Fatalf("ResNet-50 M-FLOPs = %.0f", c.MFLOPs)
	}
	total := 0.0
	for _, s := range c.Shares {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum %g", total)
	}
	for _, v := range c.Metrics.Vector() {
		if v <= 0 || v > 1 {
			t.Fatalf("metric out of range: %v", c.Metrics)
		}
	}
}

func TestCoverageAndPeakRatios(t *testing.T) {
	r := NewRegistry()
	dev := gpusim.TitanXP()
	ai := CoverageOf(CharacterizeSuite(r.AIBench, dev))
	ml := CoverageOf(CharacterizeSuite(r.MLPerf, dev))
	// Paper: AIBench covers a wider range on every axis (ratios 1.3-6.4x).
	f, p, e := PeakRatios(ai, ml)
	for name, v := range map[string]float64{"flops": f, "params": p, "epochs": e} {
		if v < 1 {
			t.Fatalf("AIBench %s peak ratio %.2f < 1: MLPerf should not exceed AIBench", name, v)
		}
	}
	if ai.MFLOPs.Min >= ml.MFLOPs.Min {
		t.Fatal("AIBench should extend below MLPerf's smallest FLOPs (Learning-to-Rank)")
	}
	// Paper ranges: AIBench FLOPs 0.09..157802 M; params 0.03..68.4 M;
	// epochs 6..96.
	if ai.MFLOPs.Min > 1 || ai.MFLOPs.Max < 5e4 {
		t.Fatalf("AIBench FLOPs range [%.2f, %.0f]", ai.MFLOPs.Min, ai.MFLOPs.Max)
	}
	if ai.Epochs.Min != 6 || ai.Epochs.Max != 95.5 {
		t.Fatalf("AIBench epochs range [%g, %g]", ai.Epochs.Min, ai.Epochs.Max)
	}
}

func TestHotspotCoverageAIBenchExceedsMLPerf(t *testing.T) {
	r := NewRegistry()
	dev := gpusim.TitanXP()
	ai, ml := HotspotHistogram(CharacterizeSuite(r.AIBench, dev)), HotspotHistogram(CharacterizeSuite(r.MLPerf, dev))
	aiTotal, mlTotal := 0, 0
	for i := range ai {
		aiTotal += ai[i]
		mlTotal += ml[i]
	}
	if aiTotal <= mlTotal {
		t.Fatalf("AIBench hotspot functions %d <= MLPerf %d; Fig 6 requires more coverage", aiTotal, mlTotal)
	}
	aiHot := len(DistinctHotspots(CharacterizeSuite(r.AIBench, dev), 0.10))
	mlHot := len(DistinctHotspots(CharacterizeSuite(r.MLPerf, dev), 0.10))
	if aiHot <= mlHot {
		t.Fatalf("AIBench >=10%% hotspots %d <= MLPerf %d", aiHot, mlHot)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	r := NewRegistry()
	dev := gpusim.TitanXP()
	var buf bytes.Buffer
	RenderTable1(&buf)
	RenderTable2(&buf)
	r.RenderTable3(&buf)
	RenderTable4(&buf)
	r.RenderTable5(&buf, 1)
	r.RenderTable6(&buf, gpusim.TitanRTX())
	r.RenderTable7(&buf, dev)
	r.RenderFigure1a(&buf, dev)
	r.RenderFigure2(&buf, dev)
	r.RenderFigure3(&buf, dev)
	r.RenderFigure4(&buf, 1)
	r.RenderFigure5(&buf, dev)
	r.RenderFigure6(&buf, dev)
	r.RenderFigure7(&buf, dev)
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6", "Table 7",
		"Figure 1a", "Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Figure 7",
		"DC-AI-C17", "maxwell_sgemm", "Titan",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("renderer output missing %q", want)
		}
	}
}

func TestStallHeadlines(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	stalls := r.RenderFigure7(&buf, gpusim.TitanXP())
	ew, ok := stalls[gpusim.Elementwise]
	if !ok {
		t.Fatal("no elementwise stalls")
	}
	// Paper: element-wise kernels ≈70% memory-dependency stalls.
	if math.Abs(ew.MemDepend-0.70) > 0.08 {
		t.Fatalf("elementwise mem-dep = %.2f, want ≈0.70", ew.MemDepend)
	}
	// Top two stalls overall are memory dependency and execution
	// dependency.
	for cat, s := range stalls {
		others := []float64{s.InstFetch, s.Texture, s.Sync, s.ConstMemDepend, s.MemThrottle}
		for _, o := range others {
			if o > s.MemDepend && o > s.ExecDepend {
				t.Fatalf("category %s: top-2 stall invariant violated", cat)
			}
		}
	}
}

func TestReplaySessionCostScale(t *testing.T) {
	r := NewRegistry()
	ic := r.ByID("DC-AI-C1")
	s := ic.RunReplaySession(3)
	// ≈44.5 epochs × 10517 s ≈ 130 h, within the CV=1.12% spread.
	if s.Hours < 120 || s.Hours > 140 {
		t.Fatalf("replayed IC session %.1f h, want ≈130", s.Hours)
	}
}
