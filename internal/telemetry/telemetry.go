// Package telemetry is the suite's stdlib-only tracing and metrics
// subsystem. It instruments the real Go execution engine — the Plan
// Runner, the data-parallel dist engine, the tensor kernel dispatch,
// and the fork-join pool — with a strict two-plane design:
//
//   - The deterministic plane (this file plus counters.go) is part of
//     the suite's reproducibility contract: the span tree (stable ids,
//     names, per-parent sequence numbers, deterministic values) and the
//     counter set (kernel calls and FLOPs per kernel-op, floats/rounds
//     all-reduced, grains scheduled, epochs, sink records) are
//     bitwise-identical across repeated seeded runs of the same Plan,
//     regardless of goroutine scheduling. CI diffs two runs' trace
//     envelopes byte for byte to enforce this.
//
//   - The wall-clock plane (wallclock.go) carries everything
//     scheduling- or hardware-dependent — span durations, pool
//     occupancy, GC/heap gauges from runtime/metrics — and is
//     segregated into its own RunMetrics payload (envelope kind
//     "runmetrics"), excluded from result comparison.
//
// Telemetry defaults off, and a traced run is a value, not a mode of
// the process: Start returns a Tracer that owns the run's span tree
// and its Counters, the run's engines reach both through the spans and
// tensors they already hold, and a nil *Span or nil *Counters no-ops
// every method — an untraced hot path pays a nil check. Any number of
// traced and untraced runs share a process without seeing each other.
// Only the pool statistics of the wall-clock plane describe something
// process-wide (see wallclock.go).
//
// Determinism rule for instrumentation sites: siblings created
// concurrently (the per-benchmark spans of a pooled suite run) must
// carry distinct names — their benchmark ids — while same-name
// siblings (the epochs of one session, the steps of one epoch) must be
// created sequentially. Canonicalization sorts children stably by name
// and numbers same-name runs by arrival order, so under that rule the
// emitted tree is independent of completion order.
package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Span is one node of a run's span tree. The zero of the type is never
// used directly; a nil *Span is the disabled fast path — every method
// is nil-safe and no-ops.
type Span struct {
	tr       *Tracer
	name     string
	children []*Span
	value    int64
	startNS  int64
	durNS    int64
	ended    bool
}

// Child opens a sub-span under s and returns it. Concurrent children
// of one parent must use distinct names (see the package doc); calling
// Child on a nil span returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	c := &Span{tr: t, name: name, startNS: t.nowNS()}
	t.mu.Lock()
	s.children = append(s.children, c)
	t.mu.Unlock()
	return c
}

// Add accumulates n into the span's deterministic value. The meaning
// is per span name: an "allreduce" span carries the floats it reduced,
// a "shards=N" scaling span the epochs it timed.
func (s *Span) Add(n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.value += n
	s.tr.mu.Unlock()
}

// Count adds n to scalar counter c of the run the span belongs to.
func (s *Span) Count(c Counter, n int64) {
	if s != nil {
		s.tr.counters.Count(c, n)
	}
}

// End closes the span, fixing its wall-clock duration. Ending twice is
// a no-op; spans still open when the tracer stops are force-ended at
// the stop time.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	now := t.nowNS()
	t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.durNS = now - s.startNS
	}
	t.mu.Unlock()
}

// Tracer collects one run's span tree and counters. Build with Start,
// finish with exactly one Stop.
type Tracer struct {
	mu       sync.Mutex
	root     *Span
	kind     string
	epoch    time.Time
	counters Counters
	pool     PoolStats // the process's pool totals when the run started
}

// Start opens a trace for one run of the named kind and returns the
// tracer whose root span the run's engines hang their spans from and
// whose Counters they count into. Until Stop the tracer is live, which
// is what keeps the pool statistics collecting — all a tracer abandoned
// without Stop (its run panicked) leaves behind.
func Start(kind string) *Tracer {
	liveTracers.Add(1)
	t := &Tracer{kind: kind, epoch: wallNow(), pool: poolSince(PoolStats{})}
	t.root = &Span{tr: t, name: "run"}
	return t
}

// Root returns the run's root span.
func (t *Tracer) Root() *Span { return t.root }

// Counters returns the run's counters, for the run to place its
// tensors under.
func (t *Tracer) Counters() *Counters { return &t.counters }

// Stop ends the run's trace: it force-ends any still-open span and
// splits the collected data into its two planes — the deterministic
// Trace (canonical span tree + counter snapshot) and the wall-clock
// RunMetrics (per-span timings aligned by span id, the pool's activity
// since Start, GC and heap gauges).
func (t *Tracer) Stop() (*Trace, *RunMetrics) {
	now, pool := t.nowNS(), poolSince(t.pool)
	liveTracers.Add(-1)
	t.mu.Lock()
	defer t.mu.Unlock()
	endOpen(t.root, now)
	spans, timings := canonicalize(t.root)
	tr := &Trace{Kind: t.kind, Spans: spans, Counters: t.counters.Snapshot()}
	return tr, newRunMetrics(t.kind, now, pool, timings)
}

// endOpen force-ends every span still open at stop time (a cancelled
// run leaves its in-flight spans open). Caller holds t.mu.
func endOpen(s *Span, now int64) {
	if !s.ended {
		s.ended = true
		s.durNS = now - s.startNS
	}
	for _, c := range s.children {
		endOpen(c, now)
	}
}

// SpanRecord is one span of the deterministic plane: identity and
// structure only, no wall-clock. IDs are preorder indices over the
// canonicalized tree, so they are stable across runs and join the
// RunMetrics timings.
type SpanRecord struct {
	ID int `json:"id"`
	// Parent is the parent span's id; -1 for the root.
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Seq numbers same-name siblings in arrival order (epoch 1, 2, …).
	Seq int `json:"seq"`
	// Value is the span's accumulated deterministic value (meaning per
	// span name); omitted when zero.
	Value int64 `json:"value,omitempty"`
}

// Trace is the deterministic plane of one run: the envelope kind
// "trace". Two seeded runs of the same Plan marshal byte-identically.
type Trace struct {
	Kind     string       `json:"kind"`
	Spans    []SpanRecord `json:"spans"`
	Counters CounterSet   `json:"counters"`
}

// canonicalize flattens the tree into preorder records with children
// sorted stably by name, plus the id-aligned wall-clock timings.
// Caller holds t.mu.
func canonicalize(root *Span) ([]SpanRecord, []SpanTiming) {
	var recs []SpanRecord
	var tims []SpanTiming
	var walk func(s *Span, parent, seq int)
	walk = func(s *Span, parent, seq int) {
		id := len(recs)
		recs = append(recs, SpanRecord{ID: id, Parent: parent, Name: s.name, Seq: seq, Value: s.value})
		tims = append(tims, SpanTiming{ID: id, StartNS: s.startNS, DurNS: s.durNS})
		kids := append([]*Span(nil), s.children...)
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].name < kids[j].name })
		prev, n := "", 0
		for _, c := range kids {
			if c.name != prev {
				prev, n = c.name, 0
			}
			walk(c, id, n)
			n++
		}
	}
	walk(root, -1, 0)
	return recs, tims
}
