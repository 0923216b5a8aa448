// Golden cases for the ctxloop analyzer, checked as an execution-engine
// package (aibench/internal/core). The local engine type stands in for
// dist.Engine / the Runner's session entry points: the analyzer matches
// the epoch-grained method set by name, wherever the method lives.
package ctxloop

import "context"

type engine struct{}

func (engine) TrainEpoch() float64 { return 0 }
func (engine) Step() float64       { return 0 }

type runner struct{}

func (runner) runSession(id string) error { return nil }

// unguarded trains out its full budget even after cancellation: the
// violation the Plan Runner's contract forbids.
func unguarded(eng engine, epochs int) {
	for e := 0; e < epochs; e++ { // want "loop invokes TrainEpoch without checking a context"
		eng.TrainEpoch()
	}
}

// unguardedRange is the same violation in range-loop form, over a
// session entry point.
func unguardedRange(r runner, ids []string) {
	for _, id := range ids { // want "loop invokes runSession without checking a context"
		_ = r.runSession(id)
	}
}

// errChecked is the contract's canonical form: ctx.Err() consulted at
// every epoch boundary.
func errChecked(ctx context.Context, eng engine, epochs int) {
	for e := 0; e < epochs; e++ {
		if ctx.Err() != nil {
			return
		}
		eng.TrainEpoch()
	}
}

// doneSelect is the other accepted form: a select on ctx.Done().
func doneSelect(ctx context.Context, eng engine, epochs int) {
	for e := 0; e < epochs; e++ {
		select {
		case <-ctx.Done():
			return
		default:
		}
		eng.TrainEpoch()
	}
}

// stepLoop is below the cancellation grain: Step is intra-epoch work
// (an optimizer step is atomic so replicas never diverge), so the loop
// is not a training loop to this analyzer.
func stepLoop(eng engine, steps int) {
	for s := 0; s < steps; s++ {
		eng.Step()
	}
}

// allowed carries a justified suppression for a loop whose total
// runtime is bounded below the cancellation grain.
func allowed(eng engine) {
	//lint:allow ctxloop fixed two-epoch warmup, bounded well under the cancellation grain
	for e := 0; e < 2; e++ {
		eng.TrainEpoch()
	}
}
