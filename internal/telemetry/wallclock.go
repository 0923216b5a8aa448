package telemetry

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// The wall-clock plane: everything scheduling- or hardware-dependent.
// Nothing in this file feeds the Trace payload — span timings, pool
// stats, and runtime gauges ship only inside RunMetrics (envelope kind
// "runmetrics"), which result comparison ignores. The time.Now calls
// below are the reason this file carries seedpurity allows: wall time
// never reaches the deterministic plane.

// wallNow anchors a tracer's monotonic epoch.
func wallNow() time.Time {
	return time.Now() //lint:allow seedpurity wall-clock plane only, never reaches the deterministic Trace
}

// nowNS is nanoseconds since the tracer's epoch (monotonic).
func (t *Tracer) nowNS() int64 { return int64(time.Since(t.epoch)) }

// SpanTiming is one span's wall-clock timing, joined to the
// deterministic SpanRecord of the same ID.
type SpanTiming struct {
	ID      int   `json:"id"`
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// PoolStats aggregates the fork-join pool's behaviour over the run's
// window: how often parallel sections ran, how many extra workers they
// wanted versus got from the process-wide budget, and total busy time.
// The pool and its budget belong to the process, so like the heap and
// GC gauges beside it in RunMetrics this is process-wide activity
// between the run's Start and Stop: exactly the run's own sections
// when it ran alone, its neighbours' too when runs overlapped.
type PoolStats struct {
	// Calls counts parallel sections entered during the run's window.
	Calls int64 `json:"calls"`
	// SerialCalls counts sections that got no extra workers and ran serially.
	SerialCalls int64 `json:"serial_calls"`
	// ExtraRequested / ExtraAcquired sum the extra-worker asks and grants.
	ExtraRequested int64 `json:"extra_requested"`
	ExtraAcquired  int64 `json:"extra_acquired"`
	// BusyNS is total wall time spent inside parallel sections.
	BusyNS int64 `json:"busy_ns"`
}

// The pool totals are monotone — only ever added to, never reset — and
// a tracer reports the difference between its Stop and its Start, so
// overlapping traced runs cannot corrupt each other's reading.
// liveTracers counts the tracers between Start and Stop; sections
// entered while it is zero are not recorded.
var (
	poolCalls     atomic.Int64
	poolSerial    atomic.Int64
	poolRequested atomic.Int64
	poolAcquired  atomic.Int64
	poolBusyNS    atomic.Int64
	liveTracers   atomic.Int64
)

// poolSince returns the pool's activity since the reading base (the
// zero PoolStats reads the totals themselves).
func poolSince(base PoolStats) PoolStats {
	return PoolStats{
		Calls:          poolCalls.Load() - base.Calls,
		SerialCalls:    poolSerial.Load() - base.SerialCalls,
		ExtraRequested: poolRequested.Load() - base.ExtraRequested,
		ExtraAcquired:  poolAcquired.Load() - base.ExtraAcquired,
		BusyNS:         poolBusyNS.Load() - base.BusyNS,
	}
}

// PoolBegin records entry into a parallel section that wanted
// `requested` extra workers and got `acquired`. It returns a function
// to call when the section completes, or nil when no tracer is live —
// the untraced fast path is one atomic load and allocates nothing.
func PoolBegin(requested, acquired int) func() {
	if liveTracers.Load() == 0 {
		return nil
	}
	poolCalls.Add(1)
	if acquired == 0 {
		poolSerial.Add(1)
	}
	poolRequested.Add(int64(requested))
	poolAcquired.Add(int64(acquired))
	start := time.Now() //lint:allow seedpurity pool occupancy is wall-clock plane only
	return func() {
		poolBusyNS.Add(int64(time.Since(start)))
	}
}

// RunMetrics is the wall-clock plane of one run: the envelope kind
// "runmetrics". It is excluded from result comparison — two runs of
// the same Plan will not and need not agree on any field here.
type RunMetrics struct {
	Kind       string `json:"kind"`
	WallNS     int64  `json:"wall_ns"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// HeapBytes / TotalAllocBytes / GCCycles are runtime/metrics gauges
	// sampled at Stop.
	HeapBytes       uint64    `json:"heap_bytes"`
	TotalAllocBytes uint64    `json:"total_alloc_bytes"`
	GCCycles        uint64    `json:"gc_cycles"`
	Pool            PoolStats `json:"pool"`
	// Spans carries the wall-clock timing for each deterministic-plane
	// span, aligned by span id.
	Spans []SpanTiming `json:"spans"`
}

func newRunMetrics(kind string, wallNS int64, pool PoolStats, timings []SpanTiming) *RunMetrics {
	m := &RunMetrics{
		Kind:       kind,
		WallNS:     wallNS,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Pool:       pool,
		Spans:      timings,
	}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		m.HeapBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		m.TotalAllocBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		m.GCCycles = samples[2].Value.Uint64()
	}
	return m
}
