package core

import (
	"math/rand"
	"sync"

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
// The normal value is math/rand's NormFloat64 over the stream of
// rand.NewSource(seed), bit for bit, but the source is a replaySource:
// it computes only the state words the draw reads instead of seeding
// all 607 of them, so a draw costs two small objects rather than a
// 5 KB generator.
func (b *Benchmark) EpochsToQuality(seed int64) float64 {
	rng := rand.New(newReplaySource(seed))
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

// The constants of math/rand's generator (math/rand/rng.go). It is an
// additive lagged Fibonacci generator over rngLen words: output k adds
// the word rngTap places behind into the word it feeds and returns it.
// Seeding fills word i with u_i(seed) ^ rngCooked[i], where u_i packs
// LCG states 21+3i, 22+3i and 23+3i of x ↦ 48271·x mod (2³¹−1) started
// at the seed (the first 20 states are skipped).
const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap - 1 // the word output 0 feeds
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	lcgSkip = 20
)

// seedTables are what every replay draw shares, built once: pow[n] is
// 48271ⁿ mod (2³¹−1) for every LCG state seeding reads, and cooked is
// math/rand's unexported rngCooked.
type seedTables struct {
	pow    [lcgSkip + 3*rngLen + 1]uint64
	cooked [rngLen]uint64
}

var replayTables = sync.OnceValue(func() *seedTables {
	t := new(seedTables)
	t.pow[0] = 1
	for n := 1; n < len(t.pow); n++ {
		t.pow[n] = t.pow[n-1] * lcgMul % lcgMod
	}
	// Recover rngCooked from the first rngLen outputs of seed 1. Output
	// k < rngTap is vec[rngFeed−k] + vec[rngLen−1−k], both as seeded;
	// from rngTap on, an output adds a seeded word to the one output
	// k−rngTap wrote, so one subtraction gives that seeded word: outputs
	// 273–333 give words 60…0 and outputs 334–606 give words 606…334.
	// The first 273 outputs then give words 333…61.
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		vec[(rngFeed-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := range rngTap {
		vec[rngFeed-k] = out[k] - vec[rngLen-1-k]
	}
	for i := range vec {
		t.cooked[i] = vec[i] ^ t.word(1, i) // cooked is still 0 here
	}
	return t
})

// word returns seeded word i of the generator seeded with x, a seed
// already reduced into [1, 2³¹−2].
func (t *seedTables) word(x uint64, i int) uint64 {
	n := lcgSkip + 1 + 3*i
	return x*t.pow[n]%lcgMod<<40 ^ x*t.pow[n+1]%lcgMod<<20 ^ x*t.pow[n+2]%lcgMod ^ t.cooked[i]
}

// replaySource is a rand.Source whose Int63 stream equals
// rand.NewSource(seed)'s. Its first rngTap outputs each read two words
// as seeded, which it computes on demand; from output rngTap on it
// hands over to a real rand.NewSource(seed) advanced past the outputs
// already drawn, so the stream stays exact however long it is read.
type replaySource struct {
	t    *seedTables
	seed int64
	x    uint64 // seed reduced as math/rand reduces it
	k    int    // outputs drawn
	rest rand.Source
}

func newReplaySource(seed int64) *replaySource {
	s := &replaySource{t: replayTables()}
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed, reducing it the way math/rand does.
func (s *replaySource) Seed(seed int64) {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	*s = replaySource{t: s.t, seed: seed, x: uint64(x)}
}

// Int63 returns the stream's next value.
func (s *replaySource) Int63() int64 {
	if s.k < rngTap {
		v := s.t.word(s.x, rngFeed-s.k) + s.t.word(s.x, rngLen-1-s.k)
		s.k++
		return int64(v & (1<<63 - 1))
	}
	if s.rest == nil {
		s.rest = rand.NewSource(s.seed)
		for range s.k {
			s.rest.Int63()
		}
	}
	return s.rest.Int63()
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
