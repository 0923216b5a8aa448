package core

import (
	"context"
	"fmt"
	"time"

	"aibench/internal/dist"
	"aibench/internal/telemetry"
)

// ScalingPoint is one measured shard count of a benchmark's scaling
// sweep.
type ScalingPoint struct {
	Shards      int     `json:"shards"`
	SecPerEpoch float64 `json:"sec_per_epoch"`
	// Speedup is the 1-shard time per epoch divided by this point's
	// (1.0 at 1 shard; > 1 means the shards helped).
	Speedup float64 `json:"speedup"`
}

// ScalingRow is one benchmark's within-session scaling measurement.
type ScalingRow struct {
	ID     string         `json:"id"`
	Name   string         `json:"name"`
	Points []ScalingPoint `json:"points"`
}

// scalingReport is the context-aware sweep engine behind the Plan
// Runner's RunScaling kind (`Plan{Kind: RunScaling}` is the public
// entry point): each shard count trains `epochs` epochs through
// internal/dist on the named backend and reports wall-clock time per
// epoch plus speedup against the 1-shard baseline. The training itself
// is bitwise identical at every point (the dist determinism contract),
// so the sweep measures pure scheduling gain — and, across backends,
// pure isolation cost. Benchmarks without a shardable train step are
// skipped. Cancellation is checked between benchmarks and at every
// timed epoch boundary (a row is never emitted half-measured), and
// each completed row streams through sink; a sink error stops the
// sweep and is returned with the rows measured so far. A backend
// runtime failure (a dead replica process) likewise aborts the sweep:
// its timings would no longer be comparable.
func scalingReport(ctx context.Context, bs []*Benchmark, backend string, shards []int, epochs int, seed int64, root *telemetry.Span, sink func(ScalingRow) error) ([]ScalingRow, error) {
	if epochs <= 0 {
		epochs = 2
	}
	var rows []ScalingRow
	for _, b := range bs {
		if ctx.Err() != nil {
			break
		}
		if !b.Shardable() {
			continue
		}
		bspan := root.Child(b.ID)
		baseline, ok, err := timeShardedEpochs(ctx, b, backend, 1, epochs, seed, bspan)
		if err != nil {
			bspan.End()
			return rows, err
		}
		if !ok {
			bspan.End()
			break
		}
		row := ScalingRow{ID: b.ID, Name: b.Task}
		for _, n := range shards {
			sec := baseline
			if n != 1 {
				if sec, ok, err = timeShardedEpochs(ctx, b, backend, n, epochs, seed, bspan); err != nil {
					bspan.End()
					return rows, err
				} else if !ok {
					break
				}
			}
			row.Points = append(row.Points, ScalingPoint{
				Shards: n, SecPerEpoch: sec, Speedup: baseline / sec,
			})
		}
		bspan.End()
		if !ok {
			break // cancelled mid-sweep: drop the half-measured row
		}
		rows = append(rows, row)
		if sink != nil {
			if err := sink(row); err != nil {
				return rows, err
			}
		}
	}
	return rows, nil
}

// timeShardedEpochs trains `epochs` epochs at the given shard count on
// the named backend ("" = local) and returns the mean wall-clock
// seconds per epoch; ok is false when ctx was cancelled before the
// measurement completed (the Plan Runner's epoch-boundary cancellation
// contract — a cancelled sweep must not train out its epoch budget). A
// non-nil error is a backend runtime failure; a workload the engine
// rejects up front is skipped (ok with zero time).
func timeShardedEpochs(ctx context.Context, b *Benchmark, backend string, n, epochs int, seed int64, parent *telemetry.Span) (sec float64, ok bool, err error) {
	if backend == "" {
		backend = "local"
	}
	be, err := dist.NewBackend(backend, n)
	if err != nil {
		return 0, false, err // Plan validation makes this unreachable
	}
	eng, err := dist.New(ctx, b.ID, b.Factory, DeriveSeed(seed, b.ID), be)
	if err != nil {
		return 0, true, nil
	}
	defer func() {
		if cerr := eng.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// Each measured shard count gets its own span; its value is the
	// epoch count it timed, and the engine's per-step phase spans nest
	// under it.
	span := parent.Child(fmt.Sprintf("shards=%d", n))
	defer span.End()
	eng.SetSpan(span)
	// The sweep's whole point is measuring wall-clock per epoch; the
	// duration is the datum and never feeds training state.
	start := time.Now() //lint:allow seedpurity scaling measures wall-clock per epoch; durations are the measurement, not training state
	for e := 0; e < epochs; e++ {
		if ctx.Err() != nil {
			return 0, false, nil
		}
		if _, terr := eng.TrainEpoch(); terr != nil {
			return 0, false, terr
		}
		span.Count(telemetry.CounterEpochs, 1)
	}
	span.Add(int64(epochs))
	return time.Since(start).Seconds() / float64(epochs), true, nil
}
