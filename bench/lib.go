package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"aibench"
)

// The three library workloads call the suite the way `aibench run` does:
// a Plan validated by NewRunner, run to its last record through the
// envelope writer. One job is one such run; every job of an invocation
// uses the same seed, so every job must reproduce the first bit for bit.

func trainGemmPlan(cfg config) aibench.Plan {
	return quasiPlan(cfg, 5, "DC-AI-C1")
}

func trainSmallopPlan(cfg config) aibench.Plan {
	return quasiPlan(cfg, 25, "DC-AI-C3", "DC-AI-C16")
}

func shardedProcessPlan(cfg config) aibench.Plan {
	p := quasiPlan(cfg, 16, "DC-AI-C16", "DC-AI-C17")
	p.Shards, p.Backend = 2, "process"
	return p
}

func quasiPlan(cfg config, epochs int, ids ...string) aibench.Plan {
	if cfg.smoke {
		epochs = 1
	}
	return aibench.Plan{
		Kind:       aibench.RunSession,
		Session:    aibench.QuasiEntireSession,
		Benchmarks: ids,
		Seed:       cfg.seed,
		Epochs:     epochs,
		Workers:    1,
	}
}

// libOutput is what one library job left for the correctness check.
type libOutput struct {
	sessions []aibench.SessionResult
	stream   []byte
	records  int
}

// libEnv is a library workload, warm.
type libEnv struct {
	h     *harness
	suite *aibench.Suite
	plan  aibench.Plan
	// want is the first warm-up job's result, the reference every later
	// job must equal.
	want    []aibench.SessionResult
	out     bytes.Buffer
	pending []libOutput
	agg     traceAgg
	faulted bool
}

// setupLibrary builds the suite and runs the warm-up jobs. The first is
// the reference: the same plan, except that a sharded plan runs it on
// the "local" backend, the single-address-space baseline the process
// backend must match bit for bit.
func setupLibrary(h *harness, plan aibench.Plan, warmJobs int) (env, error) {
	e := &libEnv{h: h, suite: aibench.NewSuite(), plan: plan}
	refPlan := plan
	if refPlan.Backend != "" {
		refPlan.Backend = "local"
	}
	if _, err := e.runJob(refPlan, blockOpt{}); err != nil {
		return nil, err
	}
	e.want = e.pending[0].sessions
	if err := h.warmed(e); err != nil {
		return nil, err
	}
	for i := 1; i < warmJobs; i++ {
		if _, err := e.block(blockOpt{}); err != nil {
			return nil, err
		}
		if err := h.warmed(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *libEnv) block(opt blockOpt) ([]float64, error) {
	ms, err := e.runJob(e.plan, opt)
	return []float64{ms}, err
}

// runJob is one job: NewRunner, Run, every record through the envelope
// writer into a buffer. It returns the wall time of exactly that.
func (e *libEnv) runJob(plan aibench.Plan, opt blockOpt) (float64, error) {
	sp := &e.h.spans
	plan.Telemetry = opt.traced
	job := e.h.nextJob()
	root := sp.begin("job", -1, job)
	start := time.Now()

	s := sp.begin("core.NewRunner", root, job)
	runner, err := e.suite.NewRunner(plan)
	sp.end(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", e.h.cfg.workload, err)
	}
	e.out.Reset()
	w := aibench.NewResultWriter(&e.out, runner.Meta())
	sink := w.Write
	run := sp.begin("core.Runner.Run", root, job)
	if opt.traced {
		sink = func(rec aibench.Record) error {
			s := sp.begin("results.Writer.Write", run, job)
			defer sp.end(s)
			return w.Write(rec)
		}
	}
	runStart := time.Now()
	res, err := runner.Run(context.Background(), sink)
	runWall := time.Since(runStart)
	sp.end(run)
	elapsed := time.Since(start)
	sp.end(root)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", e.h.cfg.workload, err)
	}

	e.pending = append(e.pending, libOutput{
		sessions: res.Sessions,
		stream:   e.out.Bytes(), // valid until the next job; verify runs first
		records:  w.Count(),
	})
	if opt.traced {
		// The two telemetry planes describe the same spans, joined by id.
		if res.Trace == nil || res.Metrics == nil || len(res.Trace.Spans) != len(res.Metrics.Spans) {
			return 0, fmt.Errorf("%s: traced job came back without matching trace and runmetrics planes", e.h.cfg.workload)
		}
		e.agg.add(res.Trace, res.Metrics, runWall)
		importSpans(sp, res.Trace, res.Metrics, run, job, runStart)
	}
	return float64(elapsed) / 1e6, nil
}

// importSpans hangs the program's own telemetry spans under the
// harness's Run span, so -trace-out shows one tree per job.
func importSpans(sp *spanLog, tr *aibench.Trace, rm *aibench.RunMetrics, parent, job int, start time.Time) {
	ids := make([]int, len(tr.Spans))
	for i, rec := range tr.Spans {
		p := parent
		if rec.Parent >= 0 {
			p = ids[rec.Parent]
		}
		ids[i] = sp.add(rec.Name, p, job, start, rm.Spans[i].StartNS, rm.Spans[i].DurNS)
	}
}

func (e *libEnv) verify() (attempted, failed int) {
	for i := range e.pending {
		out := &e.pending[i]
		isRef := &out.sessions[0] == &e.want[0]
		if e.h.cfg.fault == "perturb-loss" && !e.faulted && !isRef {
			out.sessions[0].Losses[0] = math.Nextafter(out.sessions[0].Losses[0], math.Inf(1))
			e.faulted = true
		}
		attempted++
		if err := checkLibraryJob(e.want, out); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "FAILED job: %v\n", err)
		}
	}
	e.pending = e.pending[:0]
	return attempted, failed
}

// checkLibraryJob holds a job to the reference: same sessions, every
// per-epoch loss and the final quality equal bit for bit, nothing
// errored or cut short, and an envelope stream that decodes back to as
// many records as the sink accepted.
func checkLibraryJob(want []aibench.SessionResult, got *libOutput) error {
	if len(got.sessions) != len(want) {
		return fmt.Errorf("%d sessions, want %d", len(got.sessions), len(want))
	}
	for i := range want {
		w, g := &want[i], &got.sessions[i]
		switch {
		case g.ID != w.ID:
			return fmt.Errorf("session %d is %s, want %s", i, g.ID, w.ID)
		case g.Error != "" || g.Interrupted:
			return fmt.Errorf("%s: error %q, interrupted %v", g.ID, g.Error, g.Interrupted)
		case g.Epochs != w.Epochs || len(g.Losses) != len(w.Losses):
			return fmt.Errorf("%s: %d epochs / %d losses, want %d / %d", g.ID, g.Epochs, len(g.Losses), w.Epochs, len(w.Losses))
		case math.Float64bits(g.FinalQuality) != math.Float64bits(w.FinalQuality):
			return fmt.Errorf("%s: final quality %v differs from the reference %v", g.ID, g.FinalQuality, w.FinalQuality)
		}
		for ep := range w.Losses {
			if math.Float64bits(g.Losses[ep]) != math.Float64bits(w.Losses[ep]) {
				return fmt.Errorf("%s: epoch %d loss %v differs from the reference %v", g.ID, ep+1, g.Losses[ep], w.Losses[ep])
			}
		}
	}
	return checkStream(got.stream, got.records)
}

// checkStream decodes an envelope stream the way a consumer would and
// requires it whole: nothing skipped, nothing truncated, the expected
// record count.
func checkStream(body []byte, records int) error {
	s, err := aibench.ReadResults(bytes.NewReader(body))
	switch {
	case err != nil:
		return fmt.Errorf("stream does not decode: %w", err)
	case s.Skipped != 0 || s.Truncated:
		return fmt.Errorf("stream skipped %d records, truncated %v", s.Skipped, s.Truncated)
	case len(s.Records) != records:
		return fmt.Errorf("stream holds %d records, want %d", len(s.Records), records)
	}
	return nil
}

func (e *libEnv) close() error { return nil }

// traceAgg sums what the traced jobs' own telemetry says: the exact
// counters of the deterministic plane and the span timings of the
// wall-clock plane.
type traceAgg struct {
	jobs            int
	opFLOPs         map[string]int64
	flops, calls    int64
	epochs          int64
	grains          int64
	reduceRounds    int64
	reduceFloats    int64
	epochMS         []float64
	steps           int64
	spanNS          map[string]int64 // step, compute, allreduce, bufsync, apply
	poolCalls       int64
	poolSerialCalls int64
	poolBusyNS      int64
	wallNS          int64
	runOverheadMS   []float64
}

func (a *traceAgg) add(tr *aibench.Trace, rm *aibench.RunMetrics, runWall time.Duration) {
	if a.opFLOPs == nil {
		a.opFLOPs, a.spanNS = map[string]int64{}, map[string]int64{}
	}
	a.jobs++
	for _, k := range tr.Counters.Kernel {
		a.opFLOPs[k.Op] += k.FLOPs
		a.flops += k.FLOPs
		a.calls += k.Calls
	}
	a.epochs += tr.Counters.Epochs
	a.grains += tr.Counters.Grains
	a.reduceRounds += tr.Counters.ReduceRounds
	a.reduceFloats += tr.Counters.ReduceFloats
	var benchNS int64
	for i, rec := range tr.Spans {
		dur := rm.Spans[i].DurNS
		switch rec.Name {
		case "epoch":
			a.epochMS = append(a.epochMS, float64(dur)/1e6)
		case "step":
			a.steps++
			a.spanNS[rec.Name] += dur
		case "compute", "allreduce", "bufsync", "apply":
			a.spanNS[rec.Name] += dur
		}
		if rec.Parent == 0 { // the per-benchmark spans under the run's root
			benchNS += dur
		}
	}
	a.poolCalls += rm.Pool.Calls
	a.poolSerialCalls += rm.Pool.SerialCalls
	a.poolBusyNS += rm.Pool.BusyNS
	a.wallNS += rm.WallNS
	a.runOverheadMS = append(a.runOverheadMS, float64(int64(runWall)-benchNS)/1e6)
}
