package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestReplayDrawMatchesMathRand pins the replay draw to math/rand: the
// lazy source's first 700 values (past the hand-over to a real source
// at output 273) equal rand.NewSource(seed)'s for the seeds at the
// edges of math/rand's seed reduction and 2,000 random ones, and
// EpochsToQuality equals the rand.New(rand.NewSource(seed)) expression
// it replaced, bit for bit, over 10⁵ seeds and every benchmark spread.
// One draw makes at most two heap objects.
func TestReplayDrawMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lcgMod, -lcgMod, 1 << 31, -(1 << 31), 89482311, math.MinInt64, math.MaxInt64}
	gen := rand.New(rand.NewSource(20261021))
	for range 2000 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for _, seed := range seeds {
		want, got := rand.NewSource(seed), newReplaySource(seed)
		for k := range 700 {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: output %d is %#x, math/rand's %#x", seed, k, g, w)
			}
		}
	}

	old := func(b *Benchmark, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		cv := b.VariationCV
		if cv < 0 {
			cv = 0.15
		}
		e := b.ConvergeEpochs * (1 + cv*rng.NormFloat64())
		if e < 1 {
			e = 1
		}
		return e
	}
	bs := NewRegistry().All()
	for seed := int64(-50_000); seed < 50_000; seed++ {
		b := bs[int(seed%int64(len(bs))+int64(len(bs)))%len(bs)]
		if got, want := b.EpochsToQuality(seed), old(b, seed); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s seed %d: EpochsToQuality %v, the math/rand expression %v", b.ID, seed, got, want)
		}
	}

	b := bs[0]
	if n := testing.AllocsPerRun(100, func() { b.EpochsToQuality(42) }); n > 2 {
		t.Fatalf("one draw makes %v heap objects, want at most 2", n)
	}
}
