package core

// Benchmarking-cost accounting (Section 5.3.2 and 5.4.2): Table 6's
// per-benchmark training costs, the full-suite totals, and the paper's
// headline savings — the subset shortens benchmarking cost by 41%
// versus the AIBench full suite and 63% versus MLPerf, while full
// AIBench is 37% cheaper than MLPerf.

// suiteHours sums total session hours over benchmarks, skipping N/A
// entries (the GAN benchmarks without a termination metric).
func suiteHours(bs []*Benchmark) float64 {
	total := 0.0
	for _, b := range bs {
		if b.TotalHours > 0 {
			total += b.TotalHours
		}
	}
	return total
}

// CostSummary aggregates the cost comparison of Section 5.4.2.
type CostSummary struct {
	AIBenchFullHours float64
	MLPerfHours      float64
	SubsetHours      float64
	// SubsetVsAIBench is the fraction of AIBench-full cost the subset
	// saves (paper: 41%).
	SubsetVsAIBench float64
	// SubsetVsMLPerf is the fraction of MLPerf cost the subset saves
	// (paper: 63%).
	SubsetVsMLPerf float64
	// AIBenchVsMLPerf is the fraction of MLPerf cost the full AIBench
	// suite saves (paper: 37%).
	AIBenchVsMLPerf float64
	// TopThreeHours is the combined cost of the three most expensive
	// AIBench benchmarks (paper: ≈184.8 hours).
	TopThreeHours float64
}

// Costs computes the full cost comparison from the Table 6 data.
func (r *Registry) Costs() CostSummary {
	full := suiteHours(r.AIBench)
	mlperf := suiteHours(r.MLPerf)
	subset := suiteHours(r.Subset())

	// Top-three most expensive AIBench benchmarks.
	var h []float64
	for _, b := range r.AIBench {
		if b.TotalHours > 0 {
			h = append(h, b.TotalHours)
		}
	}
	top3 := 0.0
	for k := 0; k < 3; k++ {
		best := -1
		for i, v := range h {
			if best < 0 || v > h[best] {
				best = i
			}
		}
		top3 += h[best]
		h = append(h[:best], h[best+1:]...)
	}

	return CostSummary{
		AIBenchFullHours: full,
		MLPerfHours:      mlperf,
		SubsetHours:      subset,
		SubsetVsAIBench:  1 - subset/full,
		SubsetVsMLPerf:   1 - subset/mlperf,
		AIBenchVsMLPerf:  1 - full/mlperf,
		TopThreeHours:    top3,
	}
}
