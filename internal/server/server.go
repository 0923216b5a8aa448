// Package server is suite-as-a-service: a stdlib-only HTTP/JSON front
// end that accepts Plan submissions and runs them through the same
// Suite/Runner engine the CLI uses. Four properties shape it:
//
//   - Backpressure is explicit. A fixed number of run slots sits
//     behind a bounded, per-tenant-fair turnstile; when the line at it
//     is full a submission is answered 429 with Retry-After instead of
//     growing memory without bound.
//   - A job runs on the goroutine that owns its response. net/http
//     gives every submission a goroutine; it waits its turn, runs the
//     plan, and streams into its own ResponseWriter — no pool, no
//     hand-off, so a client that leaves, a drain and a run that panics
//     each end exactly one job.
//   - Results stream as they are produced. The response body is the
//     same versioned JSONL envelope stream `aibench run -out` writes,
//     flushed per record, so a saved response body feeds
//     `aibench report -from` unchanged and a dropped connection loses
//     only the tail.
//   - Identical submissions are free. Every record of a run is a
//     bitwise-deterministic function of (suite roster, canonical
//     plan), so completed streams are cached under results.Key(suite
//     SHA, Plan.Canonical) and replayed byte-identically for every
//     later identical submission — zero retraining. (A pooled run
//     streams its records in completion order, so two misses of one
//     plan may order the same lines differently; a hit replays the
//     stream that was cached.)
//
// Endpoints: POST /jobs (submit a core.ParsePlan wire plan, NDJSON
// stream back), GET /jobs/{id} (status), GET /healthz, GET /stats
// (serving-plane counters).
package server

import (
	"bytes"
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
	"aibench/internal/results"
	"aibench/internal/telemetry"
)

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

// job is one admitted submission: the status ledger's view of it. The
// goroutine serving the submission is the only writer of state and
// errMsg; GET /jobs/{id} and Shutdown read them.
type job struct {
	id     string
	tenant string
	// key and canonical identify the submission for the result cache.
	key       string
	canonical []byte
	runner    *core.Runner
	// cancel ends the job's context — the client's request context, so
	// a disconnect does the same: a waiting job leaves the line, a
	// running one stops at its next epoch boundary.
	cancel  context.CancelFunc
	state   atomic.Int32
	records atomic.Int64

	mu     sync.Mutex
	errMsg string
}

// finish moves j to a terminal state with the reason it ended there.
func (j *job) finish(state int32, msg string) {
	j.mu.Lock()
	j.errMsg = msg
	j.mu.Unlock()
	j.state.Store(state)
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
	// Workers is the number of run slots — how many jobs run
	// concurrently, each on its own submission's goroutine; <= 0 means
	// 1. Each job additionally parallelizes internally per its own
	// Plan.Workers.
	Workers int
	// QueueCap bounds the submissions waiting for a slot, across all
	// tenants; <= 0 means 16. A full line answers 429.
	QueueCap int
	// CacheEntries bounds the exact result cache; <= 0 means 64.
	CacheEntries int
}

// Server runs Plans submitted over HTTP: a bounded fair turnstile in
// front of a fixed number of run slots, and an exact result cache.
// Construct with New, open the slots with Start, serve Handler, stop
// with Shutdown.
type Server struct {
	reg      *core.Registry
	sha      string
	queue    *fairQueue
	cache    *resultCache
	stats    *telemetry.ServiceStats
	workers  int
	queueCap int
	mux      *http.ServeMux

	// ctx ends when a drain begins; wg counts admitted jobs whose
	// handlers have not returned.
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
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		reg:      reg,
		sha:      reg.SHA(),
		queue:    newFairQueue(queueCap),
		cache:    newResultCache(opts.CacheEntries),
		stats:    telemetry.NewServiceStats(),
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

// Start opens the run slots. Until it is called no job runs:
// submissions wait in line up to QueueCap and are refused beyond it.
func (s *Server) Start() {
	for i := 0; i < s.workers; i++ {
		s.queue.release()
	}
}

// Shutdown drains gracefully: new submissions are refused (503), jobs
// still waiting for a slot shed themselves (503), and running jobs
// finish and stream out. If ctx expires first, every job still live is
// canceled too — a run stops at its next epoch boundary — and Shutdown
// keeps waiting for the handlers to return.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
	}
	// Every admitted job is in the ledger until it is terminal, and none
	// is admitted once draining is set, so this scan misses no run.
	s.mu.Lock()
	for _, id := range s.jobOrder {
		if j := s.jobs[id]; j != nil && !terminal(j.state.Load()) {
			j.cancel()
		}
	}
	s.mu.Unlock()
	<-finished
	return ctx.Err()
}

// runJob executes j's plan on the calling goroutine — the one that
// holds j's slot and owns its response — streaming envelopes to out
// while teeing them into a buffer that becomes the cache entry when,
// and only when, the run finishes cleanly: no engine error, no
// cancellation, no per-benchmark failure. Started stays empty in the
// run meta, so every line is a pure function of (roster, canonical
// plan), and a hit replays the first clean miss byte for byte. The
// order of the lines is not: records stream as they complete, so two
// misses of a plan whose Workers is not 1 may list the same lines in
// different orders.
func (s *Server) runJob(ctx context.Context, j *job, out io.Writer) {
	cacheBuf := newCacheTee()
	w := results.NewWriter(io.MultiWriter(cacheBuf, out), j.runner.Meta())
	sink := func(rec core.Record) error {
		if err := w.Write(rec); err != nil {
			return err
		}
		j.records.Add(1)
		return nil
	}
	res, err := func() (res *core.RunResult, err error) {
		// A run that panics fails its own job, like any other run error;
		// the deferred releases up the stack then free its slot.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("run panicked: %v", p)
			}
		}()
		return j.runner.Run(ctx, sink)
	}()

	switch {
	case ctx.Err() != nil:
		j.finish(jobCanceled, "canceled: "+ctx.Err().Error())
		s.stats.Inc(telemetry.SvcJobsCanceled)
	case err != nil:
		j.finish(jobFailed, err.Error())
		s.stats.Inc(telemetry.SvcJobsFailed)
		writeErrorEnvelope(out, j.runner.Meta(), err)
	default:
		j.finish(jobCompleted, "")
		s.stats.Inc(telemetry.SvcJobsCompleted)
		if cleanRun(res) {
			s.cache.put(j.key, cacheBuf.Bytes())
		}
	}
}

// cacheTeeStart is the capacity a job's cache tee starts at: more than
// one record line of the roster takes (a characterization line is
// under 6 KB).
const cacheTeeStart = 8192

// newCacheTee returns the buffer runJob tees a stream into. A
// bytes.Buffer sizes its first growth by its first write, and a pooled
// kind's first record is whichever completes first. From a start no
// line outgrows, every growth doubles the capacity, so what the tee
// allocates depends on the stream's length, not on its order.
func newCacheTee() *bytes.Buffer {
	b := new(bytes.Buffer)
	b.Grow(cacheTeeStart)
	return b
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
func writeErrorEnvelope(out io.Writer, meta core.RunMeta, runErr error) {
	// A failed write means the client is gone; the job ledger still
	// holds the error.
	_ = results.WriteError(out, meta, runErr.Error())
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

// handleSubmit serves one Plan submission from end to end on its own
// goroutine: validate, consult the exact cache, take a place in line
// (or be refused: 429), be admitted to the ledger (or be refused: the
// server is draining), wait for a slot, run, stream. Nothing is written
// before the slot is granted, so every refusal is a clean status reply.
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
	plan, err := core.ParsePlan(http.MaxBytesReader(w, r.Body, 1<<20))
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

	t := s.queue.enter(tenant)
	if t == nil {
		s.stats.Inc(telemetry.SvcJobsRejected)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	j := &job{tenant: tenant, key: key, canonical: canonical, runner: runner, cancel: cancel}
	if !s.admit(j) {
		// Drain began while this submission validated.
		if !s.queue.leave(t) {
			s.queue.release()
		}
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	defer s.wg.Done()
	s.stats.Inc(telemetry.SvcJobsAccepted)
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Cache", "miss")
	h.Set("X-Cache-Key", key)
	h.Set("X-Job-Id", j.id)

	// Wait for the slot, the client to go, or a drain to begin — then
	// ask the queue which it was: leave's answer is taken under the same
	// mutex a grant is made under, so a slot handed over while this
	// waiter was giving up is neither lost nor used twice.
	s.stats.Gauge(telemetry.GaugeQueueDepth, 1)
	select {
	case <-t.granted:
	case <-ctx.Done():
	case <-s.ctx.Done():
	}
	s.stats.Gauge(telemetry.GaugeQueueDepth, -1)
	if s.queue.leave(t) {
		cause := "server draining"
		if ctx.Err() != nil {
			cause = "canceled while queued: " + ctx.Err().Error()
		}
		j.finish(jobCanceled, cause)
		s.stats.Inc(telemetry.SvcJobsCanceled)
		http.Error(w, "job "+j.id+" canceled before start: "+cause, http.StatusServiceUnavailable)
		return
	}
	defer s.queue.release()
	s.stats.Gauge(telemetry.GaugeWorkersBusy, 1)
	defer s.stats.Gauge(telemetry.GaugeWorkersBusy, -1)
	j.state.Store(jobRunning)
	s.runJob(ctx, j, flushWriter{w: w, rc: http.NewResponseController(w)})
}

// admit gives j its id and enters it in the bounded status ledger,
// unless a drain has begun; from here Shutdown waits for j's handler.
// Ledger eviction takes the oldest *terminal* entry: a queued or
// running job must stay findable no matter how much history accumulates
// behind it — Shutdown's cancel scan and GET /jobs/{id} both walk this
// ledger. Live entries are bounded by QueueCap plus the slot count, so
// a terminal candidate always exists long before the ledger truly fills
// with live jobs.
func (s *Server) admit(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.wg.Add(1)
	s.nextID++
	j.id = "j-" + strconv.FormatInt(s.nextID, 10)
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
	return true
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
