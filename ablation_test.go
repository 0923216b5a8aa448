// Ablation benches for the design choices DESIGN.md calls out: how the
// subset size trades cost against coverage, what the small-batch splitK
// path contributes to detector signatures, how batch size moves the
// micro-architectural metrics, and what the quasi-entire shortcut saves
// relative to entire sessions.
package aibench_test

import (
	"math/rand"
	"testing"

	"aibench"
	"aibench/internal/cluster"
	"aibench/internal/core"
	"aibench/internal/gpusim"
	"aibench/internal/stats"
)

// BenchmarkAblationSubsetSize sweeps the subset size k = 1..5 and
// reports the cost saving and cluster coverage at each size — the
// justification for the paper's choice of exactly three.
func BenchmarkAblationSubsetSize(b *testing.B) {
	suite := aibench.NewSuite()
	cs := characterizeAll(b, suite, suite.AIBench(), aibench.TitanXP())
	_, vecs := core.MetricVectors(cs)
	for d := 0; d < len(vecs[0]); d++ {
		col := make([]float64, len(vecs))
		for i := range vecs {
			col[i] = vecs[i][d]
		}
		stats.Normalize(col)
		for i := range vecs {
			vecs[i][d] = col[i]
		}
	}
	full := suite.Costs().AIBenchFullHours

	for k := 1; k <= 5; k++ {
		k := k
		b.Run(sizeName(k), func(b *testing.B) {
			var saving, coverage float64
			for i := 0; i < b.N; i++ {
				// Greedy cheapest-first selection among eligible
				// benchmarks that extends k-means coverage.
				rng := rand.New(rand.NewSource(1))
				assign, _ := cluster.KMeans(rng, vecs, k, 100)
				chosenHours := 0.0
				seen := map[int]bool{}
				for ci, bench := range suite.AIBench() {
					if bench.TotalHours <= 0 || !bench.HasAcceptedMetric {
						continue
					}
					if !seen[assign[ci]] && len(seen) < k {
						seen[assign[ci]] = true
						chosenHours += bench.TotalHours
					}
				}
				saving = 1 - chosenHours/full
				coverage = float64(len(seen)) / float64(k)
			}
			b.ReportMetric(saving*100, "cost_saving_pct")
			b.ReportMetric(coverage*100, "cluster_coverage_pct")
		})
	}
}

func sizeName(k int) string { return string(rune('0'+k)) + "-benchmarks" }

// BenchmarkAblationBatchSize sweeps batch size for the Image
// Classification spec and reports how occupancy and iteration time move
// — the effect behind the batch-1 detector signatures of Fig 3.
func BenchmarkAblationBatchSize(b *testing.B) {
	suite := aibench.NewSuite()
	spec := suite.Benchmark("DC-AI-C1").Spec()
	for _, batch := range []int{1, 8, 32, 128} {
		batch := batch
		b.Run(batchName(batch), func(b *testing.B) {
			var p *gpusim.Profile
			for i := 0; i < b.N; i++ {
				p = gpusim.Run(spec, batch, true, gpusim.TitanXP())
			}
			m := p.WeightedMetrics()
			b.ReportMetric(m.AchievedOccupancy, "occupancy")
			b.ReportMetric(p.TotalTime*1e3/float64(batch), "ms_per_sample")
			b.ReportMetric(p.CategoryShares()[gpusim.DataArrangement]*100, "data_arrange_pct")
		})
	}
}

func batchName(n int) string {
	switch n {
	case 1:
		return "batch1"
	case 8:
		return "batch8"
	case 32:
		return "batch32"
	default:
		return "batch128"
	}
}

// BenchmarkAblationQuasiVsEntire compares the scaled cost of
// quasi-entire (fixed 3-epoch) sessions against entire sessions for the
// subset — the Section 3.4 trade-off in miniature.
func BenchmarkAblationQuasiVsEntire(b *testing.B) {
	for name, plan := range map[string]aibench.Plan{
		"quasi":  {Session: aibench.QuasiEntireSession, Epochs: 3},
		"entire": {Session: aibench.EntireSession, Epochs: 60},
	} {
		plan.Benchmarks, plan.Seed = []string{"DC-AI-C16"}, 42
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSessions(b, aibench.NewSuite(), plan)
			}
		})
	}
}

// BenchmarkAblationDeviceScaling measures the simulated RTX/XP speedup
// across three workload families — the purchasing-decision signal the
// ranking example builds on.
func BenchmarkAblationDeviceScaling(b *testing.B) {
	suite := aibench.NewSuite()
	for _, id := range []string{"DC-AI-C1", "DC-AI-C6", "DC-AI-C16"} {
		id := id
		bench := suite.Benchmark(id)
		spec := bench.Spec()
		b.Run(id, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				xp := gpusim.IterationTime(spec, bench.BatchSize, gpusim.TitanXP())
				rtx := gpusim.IterationTime(spec, bench.BatchSize, gpusim.TitanRTX())
				ratio = xp / rtx
			}
			b.ReportMetric(ratio, "rtx_speedup")
		})
	}
}
