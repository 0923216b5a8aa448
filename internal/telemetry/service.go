package telemetry

import "sync/atomic"

// The serving plane: long-lived totals for a process that runs many
// plans over its lifetime — the benchmark server. Like the
// deterministic counter plane (one Counters per traced run, so a Trace
// snapshot is a pure function of one seeded run) serving totals are a
// value with an owner, but the owner is a server and they are always
// on: a server owns its own ServiceStats, every accept/reject/cache
// decision bumps it, and a /stats read is a handful of atomic loads.
// The two planes never mix — serving totals are operational, not part
// of any result record, so they impose nothing on the byte-identical
// replay contract.

// ServiceCounter names one monotonic serving total.
type ServiceCounter int

// The serving totals.
const (
	// SvcJobsAccepted counts submissions admitted to the queue.
	SvcJobsAccepted ServiceCounter = iota
	// SvcJobsRejected counts submissions refused for a full queue
	// (backpressure), not validation failures.
	SvcJobsRejected
	// SvcJobsCached counts submissions answered from the exact result
	// cache with zero retraining.
	SvcJobsCached
	// SvcJobsCompleted counts jobs whose run finished cleanly.
	SvcJobsCompleted
	// SvcJobsFailed counts jobs whose run returned an error.
	SvcJobsFailed
	// SvcJobsCanceled counts jobs abandoned by their client — while
	// queued, or mid-run via context cancellation.
	SvcJobsCanceled

	numServiceCounters
)

// ServiceGauge names one instantaneous serving level.
type ServiceGauge int

// The serving gauges.
const (
	// GaugeQueueDepth is the number of jobs currently queued.
	GaugeQueueDepth ServiceGauge = iota
	// GaugeWorkersBusy is the number of workers currently executing a
	// job.
	GaugeWorkersBusy

	numServiceGauges
)

// ServiceStats is one server's serving-plane instrument set. The zero
// value is ready to use.
type ServiceStats struct {
	counters [numServiceCounters]atomic.Int64
	gauges   [numServiceGauges]atomic.Int64
}

// NewServiceStats returns a fresh instrument set.
func NewServiceStats() *ServiceStats { return &ServiceStats{} }

// Inc adds one to a monotonic total.
func (s *ServiceStats) Inc(c ServiceCounter) { s.counters[c].Add(1) }

// Gauge moves an instantaneous level by delta (negative to release).
func (s *ServiceStats) Gauge(g ServiceGauge, delta int64) { s.gauges[g].Add(delta) }

// ServiceSnapshot is a point-in-time read of the serving plane, shaped
// for a /stats response.
type ServiceSnapshot struct {
	JobsAccepted  int64 `json:"jobs_accepted"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsCached    int64 `json:"jobs_cached"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	QueueDepth    int64 `json:"queue_depth"`
	WorkersBusy   int64 `json:"workers_busy"`
}

// Snapshot reads every total and gauge. Reads are individually atomic,
// not mutually consistent — fine for operational stats.
func (s *ServiceStats) Snapshot() ServiceSnapshot {
	return ServiceSnapshot{
		JobsAccepted:  s.counters[SvcJobsAccepted].Load(),
		JobsRejected:  s.counters[SvcJobsRejected].Load(),
		JobsCached:    s.counters[SvcJobsCached].Load(),
		JobsCompleted: s.counters[SvcJobsCompleted].Load(),
		JobsFailed:    s.counters[SvcJobsFailed].Load(),
		JobsCanceled:  s.counters[SvcJobsCanceled].Load(),
		QueueDepth:    s.gauges[GaugeQueueDepth].Load(),
		WorkersBusy:   s.gauges[GaugeWorkersBusy].Load(),
	}
}
