package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every size to the smallest that still exercises each
	// code path and every metric; its numbers mean nothing.
	smoke    bool
	traceOut string
	// fault, set only by tests, corrupts one job's output on its way to
	// the correctness check ("corrupt-hit", "perturb-loss").
	fault string
}

// blockOpt selects how a block of jobs runs.
type blockOpt struct {
	// traced records spans and turns the program's own telemetry on.
	traced bool
	// solo runs a multi-tenant block with one tenant only, so the
	// difference from the normal block is the wait behind the other.
	solo bool
}

// env is one workload, set up and warm: the program under test plus the
// callers that drive it.
type env interface {
	// block runs one sample's worth of jobs (closed loop: every caller
	// waits for its reply before sending again) and returns each job's
	// submit-to-last-byte latency in milliseconds. Outputs are kept for
	// verify.
	block(opt blockOpt) ([]float64, error)
	// verify checks the output of every job run since the last call and
	// returns how many were attempted and how many failed. It runs
	// between blocks, outside every timer and allocation count.
	verify() (attempted, failed int)
	close() error
}

// window is what one measured stretch of blocks produced.
type window struct {
	jobs     int
	samples  []float64 // per block: median job latency ÷ adjacent reference time
	jobMS    []float64 // every job's latency
	refMS    []float64 // every reference timing
	allocB   uint64    // TotalAlloc delta, summed over blocks
	mallocs  uint64    // Mallocs delta, summed over blocks
	gcCycles uint32
	cpuMS    float64 // this process, user+system
	childMS  float64 // waited-for children, user+system
}

// harness is the state one invocation shares across its phases.
type harness struct {
	cfg   config
	ref   *refProc
	spans spanLog
	// attempted and failed count every job whose output was checked,
	// warm-up jobs included.
	attempted, failed int
	// setupRefMS are the reference timings taken during the current
	// set-up, one after each warm-up block.
	setupRefMS []float64
	jobSeq     atomic.Int64
}

// nextJob numbers jobs for span grouping.
func (h *harness) nextJob() int { return int(h.jobSeq.Add(1)) }

// check verifies the jobs e has run since the last check.
func (h *harness) check(e env) {
	a, f := e.verify()
	h.attempted += a
	h.failed += f
}

// warmed ends a warm-up block the way measure ends a timed one: check
// the outputs, then time the reference kernel.
func (h *harness) warmed(e env) error {
	h.check(e)
	ms, err := h.ref.gapMS()
	h.setupRefMS = append(h.setupRefMS, ms)
	return err
}

func cpuMS(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// measure runs blocks until dur has passed and at least minBlocks ran
// (maxBlocks > 0 caps the count instead, for passes of fixed size). The
// reference kernel is timed in every gap between blocks, never beside a
// job; allocation and CPU counters are read around each block so that
// neither the reference calls nor the correctness checks leak into
// them.
func (h *harness) measure(e env, dur time.Duration, minBlocks, maxBlocks int, opt blockOpt) (*window, error) {
	w, ref := &window{}, h.ref
	var m0, m1 runtime.MemStats
	before, err := ref.gapMS()
	if err != nil {
		return nil, err
	}
	w.refMS = append(w.refMS, before)
	start := time.Now()
	for blocks := 0; ; blocks++ {
		if maxBlocks > 0 && blocks >= maxBlocks {
			break
		}
		if maxBlocks <= 0 && blocks >= minBlocks && time.Since(start) >= dur {
			break
		}
		runtime.ReadMemStats(&m0)
		self0, child0 := cpuMS(syscall.RUSAGE_SELF), cpuMS(syscall.RUSAGE_CHILDREN)
		lat, err := e.block(opt)
		if err != nil {
			return nil, err
		}
		self1, child1 := cpuMS(syscall.RUSAGE_SELF), cpuMS(syscall.RUSAGE_CHILDREN)
		runtime.ReadMemStats(&m1)
		w.allocB += m1.TotalAlloc - m0.TotalAlloc
		w.mallocs += m1.Mallocs - m0.Mallocs
		w.gcCycles += m1.NumGC - m0.NumGC
		w.cpuMS += self1 - self0
		w.childMS += child1 - child0

		h.check(e)

		after, err := ref.gapMS()
		if err != nil {
			return nil, err
		}
		w.refMS = append(w.refMS, after)
		w.samples = append(w.samples, sampleValue(lat, before, after))
		w.jobMS = append(w.jobMS, lat...)
		w.jobs += len(lat)
		before = after
	}
	if w.jobs == 0 {
		return nil, fmt.Errorf("measured no jobs")
	}
	return w, nil
}

// sampleValue is one block's contribution to job_p50_rel: the block's
// median job latency in units of the reference kernel's time, taken as
// the mean of the timings just before and just after the block.
func sampleValue(jobMS []float64, refBefore, refAfter float64) float64 {
	return median(jobMS) / ((refBefore + refAfter) / 2)
}
