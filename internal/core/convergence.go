package core

import (
	"math/rand"

	"aibench/internal/stats"
)

// Convergence replay: entire paper-scale training sessions take days to
// weeks (Section 5.3.2), so the harness replays calibrated
// epochs-to-quality distributions — mean from Fig 2 / Table 6, spread
// from Table 5's coefficients of variation — instead of wall-clock
// training. The scaled executable sessions (session.go) exercise the
// real code paths; the replay reproduces the paper's statistics.

// EpochsToQuality samples the number of epochs one training run needs to
// reach the convergent quality, for the given seed. The draw is
// N(ConvergeEpochs, (CV·ConvergeEpochs)²) truncated at 1; benchmarks
// with no accepted metric use the nominal mean spread of a GAN run.
func (b *Benchmark) EpochsToQuality(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	cv := b.VariationCV
	if cv < 0 {
		cv = 0.15 // GAN benchmarks: no accepted termination metric
	}
	e := b.ConvergeEpochs * (1 + cv*rng.NormFloat64())
	if e < 1 {
		e = 1
	}
	return e
}

// SessionHours returns the simulated wall-clock hours of one entire
// training session with the sampled epoch count (Table 6 cost model).
func (b *Benchmark) SessionHours(seed int64) float64 {
	return b.EpochsToQuality(seed) * b.EpochSeconds / 3600
}

// VariationResult is one row of the Table 5 reproduction.
type VariationResult struct {
	ID       string
	Task     string
	PaperCV  float64 // Table 5 value (negative = N/A)
	Measured float64
	Repeats  int
	Epochs   []float64
}

// MeasureVariation repeats the convergence replay the same number of
// times the paper did (Table 5's Repeat Times) and computes the
// coefficient of variation of epochs-to-quality.
func (b *Benchmark) MeasureVariation(baseSeed int64) VariationResult {
	res := VariationResult{ID: b.ID, Task: b.Task, PaperCV: b.VariationCV, Repeats: b.Repeats}
	if b.VariationCV < 0 || b.Repeats <= 0 {
		res.Measured = -1
		return res
	}
	if b.VariationCV == 0 {
		// Object Detection: identical epoch counts in all 10 repeats.
		for i := 0; i < b.Repeats; i++ {
			res.Epochs = append(res.Epochs, b.ConvergeEpochs)
		}
		res.Measured = 0
		return res
	}
	for i := 0; i < b.Repeats; i++ {
		res.Epochs = append(res.Epochs, b.EpochsToQuality(baseSeed+int64(i)*7919))
	}
	res.Measured = stats.CV(res.Epochs)
	return res
}
