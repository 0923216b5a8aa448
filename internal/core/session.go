package core

import (
	"context"
	"fmt"

	"aibench/internal/dist"
	"aibench/internal/models"
	"aibench/internal/telemetry"
	"aibench/internal/tensor"
)

// SessionKind selects what a run of a benchmark means, per the Section 3
// methodology.
type SessionKind int

// The methodology's session kinds.
const (
	// EntireSession trains to the quality target (ranking/purchasing and
	// subset runs).
	EntireSession SessionKind = iota
	// QuasiEntireSession trains a fixed number of epochs (late-stage
	// bottleneck hunting over the full suite).
	QuasiEntireSession
)

// SessionResult records one scaled training session.
type SessionResult struct {
	ID     string      `json:"id"`
	Name   string      `json:"name"`
	Kind   SessionKind `json:"kind"`
	Epochs int         `json:"epochs"`
	// Shards is the data-parallel worker count the session trained
	// with; 0 means the serial path.
	Shards int `json:"shards"`
	// Kernel is the compute kernel ("naive", "blocked", ...) the
	// session's tensor ops dispatched to, so JSONL and perf artifacts
	// record which kernel produced each number.
	Kernel string `json:"kernel"`
	// Interrupted marks a session stopped by context cancellation
	// before it exhausted its epoch budget or reached its target; the
	// loss trace is the completed-epoch prefix.
	Interrupted bool `json:"interrupted,omitempty"`
	// Error records a training failure — a trainer that could not come
	// up (dist children that cannot start, a phase declaration either
	// driver refuses), a backend losing a replica (a killed or crashed
	// worker process), a determinism violation — that ended the session
	// early. The completed-epoch prefix of Losses is kept. Failures are
	// contained per benchmark: one session's Error never aborts its
	// siblings in a suite run.
	Error        string    `json:"error,omitempty"`
	ReachedGoal  bool      `json:"reached_goal"`
	FinalQuality float64   `json:"final_quality"`
	Target       float64   `json:"target"`
	Losses       []float64 `json:"losses"`
}

// epochTrainer is one epoch of work plus its evaluation — implemented
// by the data-parallel dist.Engine and by the serial models.Trainer.
// Errors are per-benchmark failures (a dead replica process, a
// determinism violation), recorded on the session instead of crashing
// the suite.
type epochTrainer interface {
	TrainEpoch() (float64, error)
	Quality() (float64, error)
}

// runSession is the session kind's body: one real training session of
// the scaled model through the tensor/autograd/nn/optim stack, shaped by
// the plan — an entire session stops when the scaled quality target is
// met, a quasi-entire session runs the fixed epoch budget (Section 3.4's
// distinction); Plan.Epochs caps either (0 = 150). With Plan.Shards >= 1
// the session trains data-parallel through internal/dist on the plan's
// backend — each step's batch splits across shard workers and gradients
// combine with a deterministic all-reduce, so losses are bitwise
// identical for every shard count. The instance it builds
// trains from seed (the Runner derives one per benchmark) and is placed
// under the run ctx carries (tensor.RunFrom — the dist backends do the
// same for their replicas); per-epoch spans hang under span, and a
// sharded trainer nests its phase spans under each epoch's. ctx is
// checked at every epoch boundary, so a cancelled run stops training
// instead of spending the remaining epoch budget (the completed prefix
// is still returned, with Interrupted set).
func (b *Benchmark) runSession(ctx context.Context, p Plan, seed int64, span *telemetry.Span) (SessionResult, error) {
	maxEpochs := p.Epochs
	if maxEpochs <= 0 {
		maxEpochs = 150
	}
	run := tensor.RunFrom(ctx)
	res := SessionResult{ID: b.ID, Kind: p.Session, Kernel: run.Kernels.Name()}
	var (
		trainer epochTrainer
		eng     *dist.Engine // nil on the serial path
		err     error
	)
	if p.Shards > 0 {
		be, berr := dist.NewBackend(p.backendName(), p.Shards)
		if berr != nil {
			return SessionResult{}, berr // NewRunner validated the name
		}
		if eng, err = dist.New(ctx, b.ID, b.Factory, seed, be); err == nil {
			trainer, res.Shards = eng, eng.Workers()
		}
	} else {
		wl := b.Factory(seed)
		wl.Arena().SetRun(run)
		trainer, err = models.NewTrainer(wl)
	}
	if err != nil {
		// The trainer could not come up — a dist group whose children
		// cannot start, a phase list either driver refuses: this
		// benchmark's failure alone, contained like a replica lost
		// mid-run — unless the run was cancelled while it opened.
		if ctx.Err() != nil {
			res.Interrupted = true
		} else {
			res.Error = err.Error()
		}
		return res, nil
	}
	res.Name, res.Target = b.entry.Name, b.entry.ScaledTarget
	for ep := 1; ep <= maxEpochs; ep++ {
		if ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		espan := span.Child("epoch")
		if eng != nil {
			eng.SetSpan(espan) // the step's phase spans nest under its epoch
		}
		loss, err := trainer.TrainEpoch()
		if err != nil {
			// A lost replica (killed worker, crashed child) or a
			// determinism violation fails this benchmark alone: record
			// the reason, keep the completed-epoch prefix, and let the
			// suite's other benchmarks run to completion untouched.
			espan.End()
			res.Error = err.Error()
			break
		}
		espan.Count(telemetry.CounterEpochs, 1)
		res.Losses = append(res.Losses, loss)
		res.Epochs = ep
		q, qerr := trainer.Quality()
		espan.End()
		if qerr != nil {
			res.Error = qerr.Error()
			break
		}
		res.FinalQuality = q
		if p.Log != nil {
			fmt.Fprintf(p.Log, "%s epoch %d: loss=%.4f quality=%.4f\n", b.ID, ep, loss, q)
		}
		if p.Session == EntireSession && b.entry.MeetsTarget(q) {
			res.ReachedGoal = true
			break
		}
	}
	if eng != nil {
		// Close before the tracer snapshots: process backends fold
		// their children's deterministic counters into the run's here.
		if cerr := eng.Close(); cerr != nil && res.Error == "" {
			res.Error = cerr.Error()
		}
	}
	if p.Session == QuasiEntireSession && !res.Interrupted && res.Error == "" {
		res.ReachedGoal = true // quasi-entire sessions complete by definition
	}
	return res, nil
}

// ReplaySession simulates an entire paper-scale session: epochs drawn
// from the calibrated convergence distribution, wall-clock from the
// Table 6 cost model.
type ReplaySession struct {
	ID     string  `json:"id"`
	Epochs float64 `json:"epochs"`
	Hours  float64 `json:"hours"`
}

// RunReplaySession returns the simulated paper-scale session.
func (b *Benchmark) RunReplaySession(seed int64) ReplaySession {
	e := b.EpochsToQuality(seed)
	return ReplaySession{ID: b.ID, Epochs: e, Hours: e * b.EpochSeconds / 3600}
}
