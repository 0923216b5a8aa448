// Package server is suite-as-a-service: a stdlib-only HTTP/JSON front
// end that accepts Plan submissions and runs them through the same
// Suite/Runner engine the CLI uses. Three properties shape it:
//
//   - Backpressure is explicit. Submissions land in a bounded queue
//     with per-tenant fair scheduling; a full queue answers 429 with
//     Retry-After instead of growing without bound.
//   - Results stream as they are produced. The response body is the
//     same versioned JSONL envelope stream `aibench run -out` writes,
//     flushed per record, so a saved response body feeds
//     `aibench-report -from` unchanged and a dropped connection loses
//     only the tail.
//   - Identical submissions are free. Runs are bitwise-deterministic
//     functions of (suite roster, canonical plan), so completed streams
//     are cached under results.Key(suite SHA, Plan.Canonical) and
//     replayed byte-identically for every later identical submission —
//     zero retraining.
//
// Endpoints: POST /jobs (submit, NDJSON stream), GET /jobs/{id}
// (status), GET /healthz, GET /stats (serving-plane counters).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"aibench/internal/core"
	"aibench/internal/gpusim"
	"aibench/internal/results"
	"aibench/internal/telemetry"
)

// PlanRequest is the submission wire format: the canonical-plan shape
// (core.Plan.Canonical) with every knob optional. Strings name kinds
// the way the CLI does ("session", "quasi-entire", ...); zero values
// mean the Plan defaults.
type PlanRequest struct {
	Kind       string   `json:"kind"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Session    string   `json:"session,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	Epochs     int      `json:"epochs,omitempty"`
	Shards     int      `json:"shards,omitempty"`
	ShardSweep []int    `json:"shard_sweep,omitempty"`
	Kernel     string   `json:"kernel,omitempty"`
	TuneFrom   string   `json:"tune_from,omitempty"`
	Backend    string   `json:"backend,omitempty"`
	Workers    int      `json:"workers,omitempty"`
	Device     string   `json:"device,omitempty"`
	Telemetry  bool     `json:"telemetry,omitempty"`
}

// plan converts the request to a core.Plan, resolving names the way
// the CLI flags do.
func (pr PlanRequest) plan() (core.Plan, error) {
	p := core.Plan{
		Benchmarks: pr.Benchmarks,
		Seed:       pr.Seed,
		Epochs:     pr.Epochs,
		Shards:     pr.Shards,
		ShardSweep: pr.ShardSweep,
		Kernel:     pr.Kernel,
		TuneFrom:   pr.TuneFrom,
		Backend:    pr.Backend,
		Workers:    pr.Workers,
		Telemetry:  pr.Telemetry,
	}
	switch pr.Kind {
	case "", "session":
		p.Kind = core.RunSession
	case "characterize":
		p.Kind = core.RunCharacterize
	case "scaling":
		p.Kind = core.RunScaling
	case "replay":
		p.Kind = core.RunReplay
	default:
		return p, fmt.Errorf("unknown run kind %q (want session, characterize, scaling, or replay)", pr.Kind)
	}
	switch pr.Session {
	case "", "entire":
		p.Session = core.EntireSession
	case "quasi-entire":
		p.Session = core.QuasiEntireSession
	default:
		return p, fmt.Errorf("unknown session kind %q (want entire or quasi-entire)", pr.Session)
	}
	switch pr.Device {
	case "":
	case gpusim.TitanXP().Name:
		p.Device = gpusim.TitanXP()
	case gpusim.TitanRTX().Name:
		p.Device = gpusim.TitanRTX()
	default:
		return p, fmt.Errorf("unknown device %q (want %q or %q)", pr.Device, gpusim.TitanXP().Name, gpusim.TitanRTX().Name)
	}
	return p, nil
}

// Job states.
const (
	jobQueued int32 = iota
	jobRunning
	jobCompleted
	jobFailed
	jobCanceled
)

func stateName(s int32) string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobCompleted:
		return "completed"
	case jobFailed:
		return "failed"
	case jobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", s)
}

// job is one admitted submission. Its lifecycle is driven by a CAS on
// state: the worker claims queued→running, the disconnect watcher
// claims queued→canceled, and exactly the winner closes done — so a
// client abandoning a queued job and a worker popping it never race.
type job struct {
	id     string
	tenant string
	// key and canonical identify the submission for the result cache.
	key       string
	canonical []byte
	runner    *core.Runner
	// ctx is the client's request context: its cancellation is the
	// disconnect signal that stops the run at the next epoch boundary.
	ctx    context.Context
	cancel context.CancelFunc
	// out is the client's response stream (flushed per write); wrote
	// records whether the worker started streaming, so the handler
	// knows whether a canceled job may still get a plain status reply.
	out     io.Writer
	wrote   atomic.Bool
	state   atomic.Int32
	records atomic.Int64
	done    chan struct{}

	mu     sync.Mutex
	errMsg string
}

func (j *job) setErr(msg string) {
	j.mu.Lock()
	j.errMsg = msg
	j.mu.Unlock()
}

func (j *job) errText() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// resultCache is the exact result cache: completed envelope streams
// keyed by results.Key(suite SHA, canonical plan), replayed verbatim.
// Bounded by entry count, evicting in insertion order; the ledger is a
// slice, not a map walk, so eviction order is deterministic.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string][]byte
	order   []string
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = 64
	}
	return &resultCache{max: max, entries: map[string][]byte{}}
}

func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, ok := c.entries[key]
	return body, ok
}

func (c *resultCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		// Concurrent identical submissions both ran; determinism makes
		// their bodies byte-identical, so keeping the first is exact.
		return
	}
	c.entries[key] = body
	c.order = append(c.order, key)
	for len(c.order) > c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Options configure a Server.
type Options struct {
	// Registry is the benchmark roster; nil builds the full suite.
	Registry *core.Registry
	// Workers is the worker-pool width (how many jobs run
	// concurrently); <= 0 means 1. Each job additionally parallelizes
	// internally per its own Plan.Workers.
	Workers int
	// QueueCap bounds the submission queue across all tenants; <= 0
	// means 16. A full queue answers 429.
	QueueCap int
	// CacheEntries bounds the exact result cache; <= 0 means 64.
	CacheEntries int
	// Stats receives the serving-plane counters; nil allocates a fresh
	// set (readable through /stats either way).
	Stats *telemetry.ServiceStats
}

// Server runs Plans submitted over HTTP through a bounded fair queue,
// a worker pool, and an exact result cache. Construct with New, start
// the pool with Start, serve Handler, stop with Shutdown.
type Server struct {
	reg      *core.Registry
	sha      string
	queue    *fairQueue
	cache    *resultCache
	stats    *telemetry.ServiceStats
	workers  int
	queueCap int
	mux      *http.ServeMux

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	jobOrder []string
	draining bool
	nextID   int64
}

// maxJobLedger bounds the /jobs/{id} ledger; oldest entries are
// forgotten first.
const maxJobLedger = 1024

// New builds a Server; call Start before serving Handler.
func New(opts Options) *Server {
	reg := opts.Registry
	if reg == nil {
		reg = core.NewRegistry()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	queueCap := opts.QueueCap
	if queueCap <= 0 {
		queueCap = 16
	}
	stats := opts.Stats
	if stats == nil {
		stats = telemetry.NewServiceStats()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		reg:      reg,
		sha:      reg.SHA(),
		queue:    newFairQueue(queueCap),
		cache:    newResultCache(opts.CacheEntries),
		stats:    stats,
		workers:  workers,
		queueCap: queueCap,
		ctx:      ctx,
		cancel:   cancel,
		jobs:     map[string]*job{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler serving the endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// SuiteSHA reports the roster fingerprint every streamed envelope
// carries.
func (s *Server) SuiteSHA() string { return s.sha }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown drains gracefully: new submissions are refused (503),
// workers finish the jobs they are running and exit, and jobs still
// queued are canceled so their blocked handlers return. If ctx expires
// first, in-flight runs are canceled too and stop at their next epoch
// boundary.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	s.cancel() // workers exit after their current job
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		// Impatient shutdown: cancel in-flight runs (they stop at the
		// next epoch boundary) and wait for the workers to come back.
		// The ledger is scanned here, after s.cancel, not snapshotted
		// before it: a worker that claimed a queued job while the drain
		// flag was going up either observed the cancellation and shed
		// the job without running it, or claimed it before — in which
		// case its queued→running CAS is already visible to this scan.
		// Either way no unkillable run can slip past the deadline.
		s.mu.Lock()
		for _, id := range s.jobOrder {
			if j := s.jobs[id]; j != nil && j.state.Load() == jobRunning {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-finished
		err = ctx.Err()
	}

	// Shed what never ran, releasing the blocked submit handlers.
	for j := s.queue.tryPop(); j != nil; j = s.queue.tryPop() {
		s.stats.Gauge(telemetry.GaugeQueueDepth, -1)
		if j.state.CompareAndSwap(jobQueued, jobCanceled) {
			s.stats.Inc(telemetry.SvcJobsCanceled)
			j.setErr("server draining")
			close(j.done)
		}
	}
	return err
}

// worker pops jobs in fair order and runs them until Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.queue.pop(s.ctx)
		if j == nil {
			return
		}
		s.stats.Gauge(telemetry.GaugeQueueDepth, -1)
		if !j.state.CompareAndSwap(jobQueued, jobRunning) {
			continue // abandoned while queued; its watcher closed done
		}
		if s.ctx.Err() != nil {
			// Claimed in the instant Shutdown fired: shed instead of
			// starting a run nothing would cancel — the impatient
			// drain's cancel scan only covers jobs it can see running.
			j.state.Store(jobCanceled)
			j.setErr("server draining")
			s.stats.Inc(telemetry.SvcJobsCanceled)
			close(j.done)
			return
		}
		s.stats.Gauge(telemetry.GaugeWorkersBusy, 1)
		s.runJob(j)
		s.stats.Gauge(telemetry.GaugeWorkersBusy, -1)
		close(j.done)
	}
}

// runJob executes one claimed job, streaming envelopes to the client
// while teeing them into a buffer that becomes the cache entry when —
// and only when — the run finishes cleanly: no engine error, no
// cancellation, no per-benchmark failure. Started stays empty in the
// run meta, so the stream is a pure function of (roster, canonical
// plan) and replaying it later is exact.
func (s *Server) runJob(j *job) {
	var cacheBuf bytesBuffer
	w := results.NewWriter(io.MultiWriter(&cacheBuf, markWriter{j}), j.runner.Meta())
	sink := func(rec core.Record) error {
		if err := w.Write(rec); err != nil {
			return err
		}
		j.records.Add(1)
		return nil
	}
	res, err := j.runner.Run(j.ctx, sink)

	switch {
	case j.ctx.Err() != nil:
		j.state.Store(jobCanceled)
		j.setErr("canceled: " + j.ctx.Err().Error())
		s.stats.Inc(telemetry.SvcJobsCanceled)
	case err != nil:
		j.state.Store(jobFailed)
		j.setErr(err.Error())
		s.stats.Inc(telemetry.SvcJobsFailed)
		s.writeErrorEnvelope(j, err)
	default:
		j.state.Store(jobCompleted)
		s.stats.Inc(telemetry.SvcJobsCompleted)
		if cleanRun(res) {
			s.cache.put(j.key, cacheBuf.Bytes())
		}
	}
}

// cleanRun reports whether every session in the result ran to its end:
// a crashed backend or an interruption marks its record, and a stream
// containing one must not be replayed as the cached answer.
func cleanRun(res *core.RunResult) bool {
	if res == nil {
		return false
	}
	for i := range res.Sessions {
		if res.Sessions[i].Error != "" || res.Sessions[i].Interrupted {
			return false
		}
	}
	return true
}

// writeErrorEnvelope appends a terminal error line to the client's
// stream (not the cache) so a consumer can tell a failed run from a
// merely short one. The "error" kind is unknown to results.Read, which
// counts it as Skipped — it never poisons the decodable records.
func (s *Server) writeErrorEnvelope(j *job, runErr error) {
	data, err := json.Marshal(map[string]string{"error": runErr.Error()})
	if err != nil {
		return
	}
	line, err := json.Marshal(results.Envelope{V: results.Version, Kind: "error", Run: j.runner.Meta(), Data: data})
	if err != nil {
		return
	}
	if _, err := (markWriter{j}).Write(append(line, '\n')); err != nil {
		return // client is gone; the job ledger still holds the error
	}
}

// bytesBuffer is a minimal append-only buffer (bytes.Buffer without
// the reader half).
type bytesBuffer struct{ b []byte }

func (bb *bytesBuffer) Write(p []byte) (int, error) {
	bb.b = append(bb.b, p...)
	return len(p), nil
}

func (bb *bytesBuffer) Bytes() []byte { return bb.b }

// markWriter forwards to the job's response stream, recording that
// streaming began so the submit handler knows the response is spoken
// for.
type markWriter struct{ j *job }

func (m markWriter) Write(p []byte) (int, error) {
	m.j.wrote.Store(true)
	return m.j.out.Write(p)
}

// flushWriter flushes the response after every write so each envelope
// reaches the client as it is produced.
type flushWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if err != nil {
		return n, err
	}
	if ferr := f.rc.Flush(); ferr != nil && !errors.Is(ferr, http.ErrNotSupported) {
		return n, ferr
	}
	return n, nil
}

// handleSubmit admits one Plan submission: validate, consult the exact
// cache, enqueue under the tenant's FIFO, then block while the worker
// streams the response. Nothing is written before the queue decision,
// so a full queue can still answer 429 cleanly.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		// Even free answers (cache hits) are refused: drain means the
		// process is going away and clients should fail over now.
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	var pr PlanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pr); err != nil {
		http.Error(w, "bad plan: "+err.Error(), http.StatusBadRequest)
		return
	}
	plan, err := pr.plan()
	if err != nil {
		http.Error(w, "bad plan: "+err.Error(), http.StatusBadRequest)
		return
	}
	runner, err := core.NewRunner(s.reg, plan)
	if err != nil {
		http.Error(w, "bad plan: "+err.Error(), http.StatusBadRequest)
		return
	}
	canonical, err := plan.Canonical()
	if err != nil {
		http.Error(w, "bad plan: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := results.Key(s.sha, canonical)
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}

	if body, ok := s.cache.get(key); ok {
		s.stats.Inc(telemetry.SvcJobsCached)
		h := w.Header()
		h.Set("Content-Type", "application/x-ndjson")
		h.Set("X-Cache", "hit")
		h.Set("X-Cache-Key", key)
		if _, err := w.Write(body); err != nil {
			return
		}
		return
	}

	jctx, jcancel := context.WithCancel(r.Context())
	defer jcancel()
	j := &job{
		tenant:    tenant,
		key:       key,
		canonical: canonical,
		runner:    runner,
		ctx:       jctx,
		cancel:    jcancel,
		out:       flushWriter{w: w, rc: http.NewResponseController(w)},
		done:      make(chan struct{}),
	}

	s.mu.Lock()
	if s.draining {
		// Drain began while this submission validated; shed it before
		// it can reach the queue.
		s.mu.Unlock()
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	s.nextID++
	j.id = "j-" + strconv.FormatInt(s.nextID, 10)
	s.mu.Unlock()

	// The ledger entry goes in before the queue push: the moment push
	// succeeds a worker may stream the X-Job-Id header to the client,
	// and a GET /jobs/{id} racing that must find the job, not a
	// transient 404. A rejected push takes the entry back out.
	s.remember(j)

	// Streaming headers likewise go on before the job is queued — once
	// a worker can write, the header map must not be touched
	// concurrently. A rejected push undoes them.
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Cache", "miss")
	h.Set("X-Cache-Key", key)
	h.Set("X-Job-Id", j.id)

	if !s.queue.push(j) {
		s.forget(j)
		s.stats.Inc(telemetry.SvcJobsRejected)
		h.Del("X-Cache")
		h.Del("X-Cache-Key")
		h.Del("X-Job-Id")
		h.Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}
	s.stats.Inc(telemetry.SvcJobsAccepted)
	s.stats.Gauge(telemetry.GaugeQueueDepth, 1)

	// The disconnect watcher: a client abandoning a queued job first
	// unlinks it from the queue so its capacity frees immediately, then
	// races the worker's claim through the state CAS — exactly one side
	// wins and closes done. A running job needs no watcher; its run
	// context is the request context.
	go func() {
		select {
		case <-jctx.Done():
			if s.queue.remove(j) {
				s.stats.Gauge(telemetry.GaugeQueueDepth, -1)
			}
			if j.state.CompareAndSwap(jobQueued, jobCanceled) {
				s.stats.Inc(telemetry.SvcJobsCanceled)
				j.setErr("canceled while queued: " + jctx.Err().Error())
				close(j.done)
			}
		case <-j.done:
		}
	}()

	// The worker streams the whole response; this handler just keeps
	// the connection open until the job reaches a terminal state.
	<-j.done
	if !j.wrote.Load() {
		// Never started (abandoned in queue, or shed by a drain):
		// the response is still unwritten, so say what happened.
		http.Error(w, "job "+j.id+" canceled before start: "+j.errText(), http.StatusServiceUnavailable)
	}
}

// remember adds j to the bounded status ledger. Eviction takes the
// oldest *terminal* entry: a queued or running job must stay findable
// no matter how much history accumulates behind it — Shutdown's cancel
// scan and GET /jobs/{id} both walk this ledger. Live entries are
// bounded by QueueCap plus the worker count, so a terminal candidate
// always exists long before the ledger truly fills with live jobs.
func (s *Server) remember(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobOrder) > maxJobLedger {
		evicted := false
		for i, id := range s.jobOrder {
			jj := s.jobs[id]
			if jj == nil || terminal(jj.state.Load()) {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // every entry is live; run long until they settle
		}
	}
}

// forget removes a job the queue refused: the ledger must not hold an
// entry for a submission that was answered 429.
func (s *Server) forget(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, j.id)
	for i := len(s.jobOrder) - 1; i >= 0; i-- {
		if s.jobOrder[i] == j.id {
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			break
		}
	}
}

// terminal reports whether a job state is final.
func terminal(state int32) bool {
	return state == jobCompleted || state == jobFailed || state == jobCanceled
}

// jobStatus is the GET /jobs/{id} response.
type jobStatus struct {
	ID       string          `json:"id"`
	Tenant   string          `json:"tenant"`
	State    string          `json:"state"`
	Records  int64           `json:"records"`
	CacheKey string          `json:"cache_key"`
	Plan     json.RawMessage `json:"plan"`
	Error    string          `json:"error,omitempty"`
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "unknown job "+id, http.StatusNotFound)
		return
	}
	writeJSON(w, jobStatus{
		ID:       j.id,
		Tenant:   j.tenant,
		State:    stateName(j.state.Load()),
		Records:  j.records.Load(),
		CacheKey: j.key,
		Plan:     json.RawMessage(j.canonical),
		Error:    j.errText(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok", "suite_sha": s.sha})
}

// statsResponse is the GET /stats response: the serving-plane snapshot
// plus the fixed capacities it is measured against.
type statsResponse struct {
	telemetry.ServiceSnapshot
	QueueCapacity int `json:"queue_capacity"`
	Workers       int `json:"workers"`
	CacheEntries  int `json:"cache_entries"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statsResponse{
		ServiceSnapshot: s.stats.Snapshot(),
		QueueCapacity:   s.queueCap,
		Workers:         s.workers,
		CacheEntries:    s.cache.len(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(data, '\n')); err != nil {
		return // client gone; nothing to clean up
	}
}
