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

// runSweep is the scaling kind's body: each shard count of the plan's
// sweep trains Plan.Epochs epochs (0 = 2) through internal/dist on the
// plan's backend and reports wall-clock time per epoch plus speedup
// against the 1-shard baseline. The training itself is bitwise
// identical at every point (the dist determinism contract), so the
// sweep measures pure scheduling gain — and, across backends, pure
// isolation cost. A row is never emitted half-measured: a sweep
// cancelled at a timed epoch boundary, or while its engine opens,
// yields no record. An engine that cannot open (children that cannot
// start, a bad phase declaration) or a backend runtime failure (a dead
// replica process) is the sweep's error: there is no comparable timing
// left to report.
func (b *Benchmark) runSweep(ctx context.Context, p Plan, seed int64, span *telemetry.Span) (Record, error) {
	epochs := p.Epochs
	if epochs <= 0 {
		epochs = 2
	}
	backend := p.backendName()
	baseline, ok, err := b.timeShardedEpochs(ctx, backend, 1, epochs, seed, span)
	if !ok {
		return Record{}, err
	}
	row := &ScalingRow{ID: b.ID, Name: b.Task}
	for _, n := range p.ShardSweep {
		sec := baseline
		if n != 1 {
			if sec, ok, err = b.timeShardedEpochs(ctx, backend, n, epochs, seed, span); !ok {
				return Record{}, err
			}
		}
		row.Points = append(row.Points, ScalingPoint{
			Shards: n, SecPerEpoch: sec, Speedup: baseline / sec,
		})
	}
	return Record{Kind: KindScaling, Scaling: row}, nil
}

// timeShardedEpochs trains `epochs` epochs at the given shard count on
// the named backend and returns the mean wall-clock seconds per epoch.
// ok is false when there is no measurement: ctx was cancelled before it
// completed (the epoch-boundary cancellation contract — a cancelled
// sweep must not train out its epoch budget), or — with a non-nil
// error — the engine could not open or the backend failed at run time.
func (b *Benchmark) timeShardedEpochs(ctx context.Context, backend string, n, epochs int, seed int64, parent *telemetry.Span) (sec float64, ok bool, err error) {
	be, err := dist.NewBackend(backend, n)
	if err != nil {
		return 0, false, err // NewRunner validated the name
	}
	eng, err := dist.New(ctx, b.ID, b.Factory, seed, be)
	if err != nil {
		if ctx.Err() != nil {
			return 0, false, nil
		}
		return 0, false, err
	}
	defer func() {
		if cerr := eng.Close(); cerr != nil && err == nil {
			sec, ok, err = 0, false, cerr
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
