package core

import "aibench/internal/gpusim"

// Characterization is the per-benchmark workload characterization of
// Section 5: model characteristics (Fig 1a / Fig 2) and
// micro-architectural behaviour from the GPU simulator (Fig 1b / 3 / 5 /
// 6 / 7, Table 7).
type Characterization struct {
	ID       string                                    `json:"id"`
	Suite    string                                    `json:"suite"`
	Task     string                                    `json:"task"`
	MFLOPs   float64                                   `json:"mflops"`  // forward FLOPs per sample, in M-FLOPs
	MParams  float64                                   `json:"mparams"` // learnable parameters, in millions
	Epochs   float64                                   `json:"epochs"`  // epochs to convergent quality
	Metrics  gpusim.Metrics                            `json:"metrics"`
	Shares   map[gpusim.Category]float64               `json:"shares"`
	Hotspots []gpusim.Hotspot                          `json:"hotspots"`
	Stalls   map[gpusim.Category]gpusim.StallBreakdown `json:"stalls"`
}

// Characterize runs the benchmark's paper-scale architecture through the
// GPU simulator on the given device (the paper characterizes on the
// TITAN XP) and collects every per-benchmark statistic the figures need.
func (b *Benchmark) Characterize(dev gpusim.Device) Characterization {
	spec := b.Spec()
	batch := b.BatchSize
	if batch <= 0 {
		batch = 32
	}
	prof := gpusim.Run(spec, batch, true, dev)
	return Characterization{
		ID:       b.ID,
		Suite:    b.Suite,
		Task:     b.Task,
		MFLOPs:   spec.FLOPs() / 1e6,
		MParams:  float64(spec.Params()) / 1e6,
		Epochs:   b.ConvergeEpochs,
		Metrics:  prof.WeightedMetrics(),
		Shares:   prof.CategoryShares(),
		Hotspots: prof.Hotspots(),
		Stalls:   prof.CategoryStalls(),
	}
}

// CharacterizeSuite characterizes a list of benchmarks.
func CharacterizeSuite(bs []*Benchmark, dev gpusim.Device) []Characterization {
	out := make([]Characterization, 0, len(bs))
	for _, b := range bs {
		out = append(out, b.Characterize(dev))
	}
	return out
}

// Range is a [Min, Max] coverage interval.
type Range struct{ Min, Max float64 }

// Coverage summarizes a suite's model-characteristic ranges (Fig 1a).
type Coverage struct {
	MFLOPs  Range
	MParams Range
	Epochs  Range
}

// CoverageOf computes the ranges over a characterized suite. The RL
// benchmarks are excluded, as in the paper ("the FLOPs and learnable
// parameters vary significantly from different epochs").
func CoverageOf(cs []Characterization) Coverage {
	var cov Coverage
	first := true
	for _, c := range cs {
		if c.ID == "DC-AI-C17" || c.ID == "MLPerf-RL" {
			continue
		}
		if first {
			cov = Coverage{
				MFLOPs:  Range{c.MFLOPs, c.MFLOPs},
				MParams: Range{c.MParams, c.MParams},
				Epochs:  Range{c.Epochs, c.Epochs},
			}
			first = false
			continue
		}
		cov.MFLOPs = extend(cov.MFLOPs, c.MFLOPs)
		cov.MParams = extend(cov.MParams, c.MParams)
		cov.Epochs = extend(cov.Epochs, c.Epochs)
	}
	return cov
}

func extend(r Range, v float64) Range {
	if v < r.Min {
		r.Min = v
	}
	if v > r.Max {
		r.Max = v
	}
	return r
}

// PeakRatios returns the Fig 1a-style ratios of AIBench peak coverage to
// MLPerf peak coverage (the paper reports 1.3× to 6.4×).
func PeakRatios(ai, ml Coverage) (flops, params, epochs float64) {
	return ai.MFLOPs.Max / ml.MFLOPs.Max,
		ai.MParams.Max / ml.MParams.Max,
		ai.Epochs.Max / ml.Epochs.Max
}

// HotspotHistogram buckets hotspot functions by their runtime share —
// the Fig 6 histogram. Buckets are [0,5), [5,10), [10,15), [15,∞) in
// percent; only functions within a benchmark's top 80% of runtime are
// counted, matching the paper's profiling cut.
func HotspotHistogram(cs []Characterization) [4]int {
	var buckets [4]int
	type key struct {
		name   string
		bucket int
	}
	seen := map[key]bool{}
	for _, c := range cs {
		cum := 0.0
		for _, h := range c.Hotspots {
			if cum > 0.8 {
				break
			}
			cum += h.Share
			pct := h.Share * 100
			bk := 0
			switch {
			case pct >= 15:
				bk = 3
			case pct >= 10:
				bk = 2
			case pct >= 5:
				bk = 1
			}
			k := key{h.Name, bk}
			if !seen[k] {
				seen[k] = true
				buckets[bk]++
			}
		}
	}
	return buckets
}

// MetricVectors returns each benchmark's five-metric vector (the Fig 3
// radar axes), keyed by benchmark id, for clustering.
func MetricVectors(cs []Characterization) (ids []string, vecs [][]float64) {
	for _, c := range cs {
		ids = append(ids, c.ID)
		vecs = append(vecs, c.Metrics.Vector())
	}
	return ids, vecs
}
