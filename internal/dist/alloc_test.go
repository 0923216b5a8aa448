package dist_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"aibench/internal/dist"
	"aibench/internal/models"
)

// warmedShardedCeilings is models' warmedEpochCeilings for a sharded
// epoch: the benchmarks whose warmed epoch of ShardGrains-grain steps
// still asks the heap for objects, each with the count measured for it
// at seed 7 (the largest of the amd64 and 386 counts at GOMAXPROCS 1
// and 2). A ceiling may
// only come down: a family that leaves the heap leaves this list, and
// every benchmark not on it must read 0.
var warmedShardedCeilings = map[string]uint64{
	"DC-AI-C4": 1728, "DC-AI-C5": 432,
	"DC-AI-C6": 216, "DC-AI-C9": 2057,
	"DC-AI-C11": 128, "DC-AI-C12": 320,
	"DC-AI-C14": 584, "DC-AI-C17": 724,
	"MLPerf-ODL": 1968, "MLPerf-ODH": 2344, "MLPerf-TR": 700,
	"MLPerf-RL": 462,
}

// runtimeSlack is models' runtimeSlack: the runtime's own objects an
// epoch may add where the kernels fork (GOMAXPROCS above 1), taken as
// the smallest of up to three fresh engines.
const runtimeSlack = 2

// TestWarmedShardedStepAllocatesNothing is the allocation gate of the
// sharded step: for every benchmark, one local replica — which runs
// all ShardGrains grains of every phase, restoring buffers and
// flattening gradients between them — trains two epochs, and its third
// must make no heap object, or, for a benchmark on
// warmedShardedCeilings, no more than its ceiling. It runs at the
// test's GOMAXPROCS (CI runs it at -cpu 1,2). The ceilings are
// plain-build counts, so a -race build skips the test.
func TestWarmedShardedStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; counts are plain-build counts")
	}
	attempts, slack := 1, uint64(0)
	if runtime.GOMAXPROCS(0) > 1 {
		attempts, slack = 3, runtimeSlack
	}
	for _, e := range models.AllEntries() {
		t.Run(e.ID, func(t *testing.T) {
			ceiling := warmedShardedCeilings[e.ID]
			got := uint64(math.MaxUint64)
			for range attempts {
				if got = min(got, warmedShardedMallocs(t, e.ID, e.Factory)); got <= ceiling+slack {
					break
				}
			}
			if got > ceiling+slack {
				t.Errorf("a warmed sharded epoch of %s makes %d mallocs, want ≤ %d", e.ID, got, ceiling+slack)
			}
			t.Logf("%s at GOMAXPROCS %d: %d mallocs (ceiling %d)", e.ID, runtime.GOMAXPROCS(0), got, ceiling)
		})
	}
}

// warmedShardedMallocs opens id at seed 7 on one local replica, trains
// it for two epochs, and returns the heap objects its third epoch
// makes.
func warmedShardedMallocs(t *testing.T, id string, factory models.Factory) uint64 {
	eng, err := dist.New(context.Background(), id, factory, 7, dist.NewLocal(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	epoch := func() {
		if _, err := eng.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	epoch()
	epoch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	epoch()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
