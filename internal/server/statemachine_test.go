package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aibench/internal/results"
)

// tally is what the server answered, counted on the server's side of
// the connection: a client that hangs up never learns its own outcome.
type tally struct {
	inFlight                                        atomic.Int64
	requests, bad, rejected, hits, admitted, drains atomic.Int64
	unexpected                                      atomic.Int64
}

// statusRecorder notes the status a handler answered with; Unwrap keeps
// http.ResponseController's Flush working through it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// counted wraps the server's handler: every POST /jobs is filed under
// exactly one outcome once its handler has returned.
func (c *tally) counted(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.inFlight.Add(1)
		defer c.inFlight.Add(-1)
		if r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		c.requests.Add(1)
		h := w.Header()
		switch {
		case h.Get("X-Job-Id") != "": // streamed (200) or shed before its turn (503)
			c.admitted.Add(1)
		case rec.status == http.StatusOK && h.Get("X-Cache") == "hit":
			c.hits.Add(1)
		case rec.status == http.StatusBadRequest:
			c.bad.Add(1)
		case rec.status == http.StatusTooManyRequests && h.Get("Retry-After") != "":
			c.rejected.Add(1)
		case rec.status == http.StatusServiceUnavailable:
			c.drains.Add(1)
		default:
			c.unexpected.Add(1)
		}
	})
}

// The plans a schedule draws from. The quick ones repeat, so hits and
// misses both happen; the endless one only ever stops by disconnect or
// by an impatient drain; the invalid ones are 400s.
var (
	quickPlans = []string{
		`{"kind":"replay","benchmarks":["DC-AI-C1"],"seed":1}`,
		`{"kind":"replay","benchmarks":["DC-AI-C1"],"seed":2}`,
		`{"kind":"characterize","benchmarks":["DC-AI-C16"]}`,
		`{"kind":"session","session":"quasi-entire","benchmarks":["DC-AI-C16"],"seed":4,"epochs":1}`,
	}
	endlessPlan  = `{"kind":"session","session":"quasi-entire","benchmarks":["DC-AI-C16"],"seed":5,"epochs":100000000}`
	invalidPlans = []string{`{nope`, `{"kind":"warmup"}`, `{"benchmarks":["DC-AI-C99"]}`, `{"profile":true}`}
)

var stateRank = map[string]int{"queued": 0, "running": 1, "completed": 2, "failed": 2, "canceled": 2}

// TestServerStateMachine drives seeded schedules of submissions (two
// tenants; hits, misses, invalid plans, runs that never end), clients
// hanging up while queued and while running, status polling, and a
// drain that starts patient and turns impatient, against one and two
// run slots — and after each schedule checks the books: both gauges at
// zero, every accepted job in exactly one terminal counter, every
// request in exactly one outcome, every handler returned, no goroutine
// left behind, nothing unclean in the cache.
func TestServerStateMachine(t *testing.T) {
	schedules := 6
	if testing.Short() {
		schedules = 2
	}
	for _, workers := range []int{1, 2} {
		for seed := int64(1); seed <= int64(schedules); seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				runSchedule(t, workers, seed)
			})
		}
	}
}

func runSchedule(t *testing.T, workers int, seed int64) {
	rng := rand.New(rand.NewSource(seed*31 + int64(workers)))
	baseline := runtime.NumGoroutine()

	const queueCap = 2
	s := New(Options{Workers: workers, QueueCap: queueCap})
	s.Start()
	var counts tally
	ts := httptest.NewServer(counts.counted(s.Handler()))

	// The poller reads the observability surface for as long as the
	// schedule runs: every answer must decode, gauges stay within their
	// capacities, and a job's state only ever moves forward.
	stopPolling, pollerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollerDone)
		seen := map[string]int{}
		for n := 1; ; n++ {
			select {
			case <-stopPolling:
				return
			default:
			}
			var stats statsResponse
			if code, err := getJSON(ts, "/stats", &stats); err != nil || code != http.StatusOK {
				t.Errorf("GET /stats: status %d err %v", code, err)
				return
			}
			// A job handed a slot counts as waiting until its goroutine
			// wakes up and counts itself busy; either way it holds the slot.
			if stats.QueueDepth < 0 || stats.WorkersBusy < 0 || stats.WorkersBusy > int64(workers) || stats.QueueDepth+stats.WorkersBusy > int64(queueCap+workers) {
				t.Errorf("gauges out of range: depth %d (cap %d) busy %d (slots %d)", stats.QueueDepth, queueCap, stats.WorkersBusy, workers)
			}
			id := fmt.Sprintf("j-%d", 1+n%12)
			var status jobStatus
			code, err := getJSON(ts, "/jobs/"+id, &status)
			switch {
			case code == http.StatusNotFound:
			case err != nil || code != http.StatusOK:
				t.Errorf("GET /jobs/%s: status %d err %v", id, code, err)
			default:
				rank, known := stateRank[status.State]
				if !known || status.ID != id || rank < seen[id] {
					t.Errorf("GET /jobs/%s = %+v after rank %d: unknown state, wrong job, or a state that moved backwards", id, status, seen[id])
				}
				seen[id] = rank
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var clients sync.WaitGroup
	var sent, badSent atomic.Int64
	// send posts one plan; hangUp > 0 drops the connection that long
	// after sending, whatever the job is doing by then. sent and badSent
	// count the answers, and the 400s among them, that reached a client
	// that stayed.
	send := func(tenant, body string, hangUp time.Duration, invalid bool) {
		clients.Add(1)
		go func() {
			defer clients.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if hangUp > 0 {
				timer := time.AfterFunc(hangUp, cancel)
				defer timer.Stop()
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("X-Tenant", tenant)
			resp, err := ts.Client().Do(req)
			if err != nil {
				if hangUp == 0 {
					t.Errorf("a client that stayed got no answer: %v", err)
				}
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if hangUp > 0 {
				return // whatever it saw, it may have seen only part of it
			}
			sent.Add(1)
			switch resp.StatusCode {
			case http.StatusOK:
				if _, rerr := results.Read(bytes.NewReader(got)); err != nil || rerr != nil || invalid {
					t.Errorf("plan %s answered 200 with a body that broke (%v) or does not decode (%v)", body, err, rerr)
				}
			case http.StatusBadRequest:
				badSent.Add(1)
				if !invalid {
					t.Errorf("plan %s answered 400: %s", body, got)
				}
			case http.StatusServiceUnavailable: // draining, whatever the plan
			case http.StatusTooManyRequests:
				if invalid {
					t.Errorf("plan %s got as far as the turnstile", body)
				}
			default:
				t.Errorf("plan %s answered %d: %s", body, resp.StatusCode, got)
			}
		}()
	}

	// The schedule: a drain begins somewhere in its second half, patient
	// for a moment and then not, while submissions keep arriving.
	steps := 14 + rng.Intn(8)
	drainAt := steps/2 + rng.Intn(steps/2)
	patience := time.Duration(rng.Intn(30)) * time.Millisecond
	shutdownErr := make(chan error, 1)
	for step := 0; step < steps; step++ {
		if step == drainAt {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), patience)
				defer cancel()
				shutdownErr <- s.Shutdown(ctx)
			}()
		}
		tenant := []string{"a", "b"}[rng.Intn(2)]
		var hangUp time.Duration
		if rng.Intn(3) == 0 {
			hangUp = time.Duration(1+rng.Intn(8000)) * time.Microsecond
		}
		switch k := rng.Intn(10); {
		case k < 6:
			send(tenant, quickPlans[rng.Intn(len(quickPlans))], hangUp, false)
		case k < 8:
			// Endless runs end by hang-up or by the impatient drain.
			send(tenant, endlessPlan, hangUp, false)
		default:
			send(tenant, invalidPlans[rng.Intn(len(invalidPlans))], hangUp, true)
		}
		time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
	}

	select {
	case err := <-shutdownErr:
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("shutdown: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("shutdown never returned")
	}
	// Shutdown has returned: every admitted job is terminal and its
	// books are closed, even if a handler is still on its last line.
	snap := s.stats.Snapshot()
	if snap.QueueDepth != 0 || snap.WorkersBusy != 0 {
		t.Errorf("gauges after shutdown: depth %d busy %d, want 0 0", snap.QueueDepth, snap.WorkersBusy)
	}
	if snap.JobsAccepted != snap.JobsCompleted+snap.JobsFailed+snap.JobsCanceled {
		t.Errorf("accepted %d != completed %d + failed %d + canceled %d", snap.JobsAccepted, snap.JobsCompleted, snap.JobsFailed, snap.JobsCanceled)
	}
	if s.queue.depth() != 0 {
		t.Errorf("%d waiters still in line after shutdown", s.queue.depth())
	}

	clientsDone := make(chan struct{})
	go func() { clients.Wait(); close(clientsDone) }()
	select {
	case <-clientsDone:
	case <-time.After(60 * time.Second):
		t.Fatal("a client never got its answer")
	}
	close(stopPolling)
	<-pollerDone
	ts.Close() // returns once every handler has
	if n := counts.inFlight.Load(); n != 0 {
		t.Errorf("%d handlers still running after the listener closed", n)
	}

	// Every request has exactly one outcome, and the server's counters
	// agree with what its handlers answered.
	snap = s.stats.Snapshot()
	requests, admitted, hits, rejected := counts.requests.Load(), counts.admitted.Load(), counts.hits.Load(), counts.rejected.Load()
	if sum := rejected + hits + admitted + counts.drains.Load() + counts.bad.Load(); sum != requests || counts.unexpected.Load() != 0 {
		t.Errorf("%d requests, but rejected %d + cached %d + accepted %d + refused by drain %d + invalid %d = %d (%d answered some other way)",
			requests, rejected, hits, admitted, counts.drains.Load(), counts.bad.Load(), sum, counts.unexpected.Load())
	}
	if snap.JobsAccepted != admitted || snap.JobsCached != hits || snap.JobsRejected != rejected {
		t.Errorf("stats %+v disagree with the handlers' answers: accepted %d cached %d rejected %d", snap, admitted, hits, rejected)
	}
	if requests < sent.Load() || counts.bad.Load() < badSent.Load() {
		t.Errorf("clients that stayed got %d answers (%d of them 400); the server gave %d (%d)", sent.Load(), badSent.Load(), requests, counts.bad.Load())
	}

	t.Logf("requests %d: invalid %d, rejected %d, cached %d, refused by drain %d, accepted %d (completed %d, failed %d, canceled %d)",
		requests, counts.bad.Load(), rejected, hits, counts.drains.Load(), admitted, snap.JobsCompleted, snap.JobsFailed, snap.JobsCanceled)

	// The ledger tells the same story: every job terminal, one per
	// terminal counter.
	byState := map[int32]int64{}
	s.mu.Lock()
	for _, j := range s.jobs {
		byState[j.state.Load()]++
	}
	s.mu.Unlock()
	if byState[jobQueued] != 0 || byState[jobRunning] != 0 ||
		byState[jobCompleted] != snap.JobsCompleted || byState[jobFailed] != snap.JobsFailed || byState[jobCanceled] != snap.JobsCanceled {
		t.Errorf("ledger states %v disagree with stats %+v", byState, snap)
	}

	// Only clean runs are cached.
	s.cache.mu.Lock()
	for key, body := range s.cache.entries {
		stream, err := results.Read(bytes.NewReader(body))
		if err != nil || len(stream.Records) == 0 {
			t.Errorf("cached body %s does not decode to records: %v", key, err)
			continue
		}
		for _, sr := range stream.Sessions() {
			if sr.Error != "" || sr.Interrupted {
				t.Errorf("cached body %s holds an unclean session: error %q interrupted %v", key, sr.Error, sr.Interrupted)
			}
		}
	}
	s.cache.mu.Unlock()

	// No watcher, worker or waiter is left behind. Connection goroutines
	// wind down on their own schedule, so give them a moment.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the schedule, %d before it:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

func getJSON(ts *httptest.Server, path string, into any) (int, error) {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(into)
}
