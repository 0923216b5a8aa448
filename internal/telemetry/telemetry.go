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
// Telemetry defaults off. A nil *Span no-ops every method, and the
// counter hooks are gated behind one atomic load, so the instrumented
// hot paths pay near-zero overhead until a Tracer is started. The
// counter plane is process-global: exactly one run should trace at a
// time (concurrent traced runs share counters).
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

// SpanCarrier is implemented by trainers that hang internal spans
// under a caller-owned parent: the session engine hands the dist
// engine each epoch's span so per-step phase spans nest correctly.
type SpanCarrier interface {
	SetSpan(*Span)
}

// Tracer collects one run's span tree and owns the counter plane for
// the run's duration. Build with Start, finish with Stop.
type Tracer struct {
	mu    sync.Mutex
	root  *Span
	kind  string
	epoch time.Time
}

// Start opens a trace for one run of the named kind: it resets and
// enables the process-global counter and pool-stat planes and returns
// a tracer whose root span the run's engines hang their spans from.
func Start(kind string) *Tracer {
	t := &Tracer{kind: kind, epoch: wallNow()}
	t.root = &Span{tr: t, name: "run"}
	resetCounters()
	resetPoolStats()
	gate.Store(true)
	return t
}

// Root returns the run's root span.
func (t *Tracer) Root() *Span { return t.root }

// Stop disables the counter plane, force-ends any still-open span, and
// splits the collected data into its two planes: the deterministic
// Trace (canonical span tree + counter snapshot) and the wall-clock
// RunMetrics (per-span timings aligned by span id, pool stats, GC and
// heap gauges).
func (t *Tracer) Stop() (*Trace, *RunMetrics) {
	gate.Store(false)
	now := t.nowNS()
	t.mu.Lock()
	defer t.mu.Unlock()
	endOpen(t.root, now)
	spans, timings := canonicalize(t.root)
	tr := &Trace{Kind: t.kind, Spans: spans, Counters: snapshotCounters()}
	return tr, newRunMetrics(t.kind, now, timings)
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
