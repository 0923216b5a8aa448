package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aibench/internal/core"
	"aibench/internal/models"
	"aibench/internal/results"
)

func newTestServer(t *testing.T, opts Options, start bool) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	if start {
		s.Start()
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, tenant, body string) *http.Response {
	t.Helper()
	resp, err := do(ts, tenant, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func do(ts *httptest.Server, tenant, body string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	return ts.Client().Do(req)
}

// post is submit for goroutines other than the test's own: it reports
// failure — a non-200 status included — instead of ending the test.
func post(ts *httptest.Server, tenant, body string) ([]byte, error) {
	resp, err := do(ts, tenant, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// parked reports how many admitted jobs wait for a slot: the queue-depth
// gauge, which a job raises only once it is in line, in the ledger and
// counted as accepted.
func parked(s *Server) int64 { return s.stats.Snapshot().QueueDepth }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const smallPlan = `{"kind":"session","session":"quasi-entire","benchmarks":["DC-AI-C1"],"seed":42,"epochs":1}`

// TestSubmitStreamsThenCaches is the tentpole contract end to end: the
// first submission runs and streams a decodable envelope stream; the
// identical second submission is answered from the exact cache,
// byte-identical, with zero retraining.
func TestSubmitStreamsThenCaches(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueCap: 4}, true)

	first := submit(t, ts, "alice", smallPlan)
	firstBody, err := io.ReadAll(first.Body)
	first.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first submit: status %d, body %s", first.StatusCode, firstBody)
	}
	if got := first.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first submit: X-Cache = %q, want miss", got)
	}
	if ct := first.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("first submit: Content-Type = %q", ct)
	}

	// The response body is a results stream aibench-report could read.
	stream, err := results.Read(bytes.NewReader(firstBody))
	if err != nil {
		t.Fatalf("response body is not a decodable result stream: %v", err)
	}
	if len(stream.Records) != 1 || len(stream.Sessions()) != 1 {
		t.Fatalf("stream records = %d (sessions %d), want 1 session", len(stream.Records), len(stream.Sessions()))
	}
	if sr := stream.Sessions()[0]; sr.ID != "DC-AI-C1" || sr.Epochs != 1 {
		t.Fatalf("session decoded as %+v", sr)
	}
	if len(stream.Runs) != 1 || stream.Runs[0].SuiteSHA != s.SuiteSHA() {
		t.Fatalf("stream runs = %+v, want one run under suite %s", stream.Runs, s.SuiteSHA())
	}
	if stream.Runs[0].Started != "" {
		t.Fatalf("server stream stamped a wall-clock start %q; cached replays would not be byte-stable", stream.Runs[0].Started)
	}

	// Identical resubmission: served from cache, byte for byte.
	second := submit(t, ts, "bob", smallPlan)
	secondBody, err := io.ReadAll(second.Body)
	second.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second submit: X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("cached replay differs from original:\n%s\n%s", firstBody, secondBody)
	}
	if first.Header.Get("X-Cache-Key") != second.Header.Get("X-Cache-Key") {
		t.Fatal("identical submissions got different cache keys")
	}

	// Zero retraining: one job ever ran.
	snap := s.stats.Snapshot()
	if snap.JobsAccepted != 1 || snap.JobsCompleted != 1 || snap.JobsCached != 1 {
		t.Fatalf("stats = %+v, want accepted/completed/cached = 1/1/1", snap)
	}

	// A semantically identical but differently-spelled plan also hits:
	// canonicalization owns the key.
	respelled := `{"benchmarks":["DC-AI-C1","DC-AI-C1"],"epochs":1,"seed":42,"session":"quasi-entire","kind":"session"}`
	third := submit(t, ts, "carol", respelled)
	thirdBody, err := io.ReadAll(third.Body)
	third.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := third.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("respelled submit: X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(firstBody, thirdBody) {
		t.Fatal("respelled plan's cached replay differs from original")
	}
}

// TestQueueFullRejectsAndDrainSheds: with no workers and QueueCap 1,
// the second submission must be shed with 429 + Retry-After while the
// first stays queued; a drain then cancels the queued job and its
// handler answers 503.
func TestQueueFullRejectsAndDrainSheds(t *testing.T) {
	s := New(Options{QueueCap: 1}) // workers never started
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	firstDone := make(chan int, 1)
	go func() {
		resp := submit(t, ts, "alice", smallPlan)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	waitFor(t, "first job queued", func() bool { return parked(s) == 1 })

	second := submit(t, ts, "bob", smallPlan)
	_, _ = io.Copy(io.Discard, second.Body)
	second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Fatal("429 response carries no Retry-After")
	}
	if snap := s.stats.Snapshot(); snap.JobsRejected != 1 || snap.QueueDepth != 1 {
		t.Fatalf("stats after rejection = %+v, want rejected 1, depth 1", snap)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case status := <-firstDone:
		if status != http.StatusServiceUnavailable {
			t.Fatalf("shed queued job answered %d, want 503", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain left the queued job's handler blocked")
	}
	if snap := s.stats.Snapshot(); snap.JobsCanceled != 1 || snap.QueueDepth != 0 {
		t.Fatalf("stats after drain = %+v, want canceled 1, depth 0", snap)
	}
}

// TestClientDisconnectCancelsRun: abandoning an in-flight submission
// cancels the job's context, so the run stops at its next epoch
// boundary instead of training out its budget, and the server moves
// on.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueCap: 4}, true)

	// A run long enough to be mid-flight when the client walks away.
	long := `{"kind":"session","session":"quasi-entire","benchmarks":["DC-AI-C1"],"seed":7,"epochs":100000}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "alice")
	errc := make(chan error, 1)
	go func() {
		resp, derr := ts.Client().Do(req)
		if derr == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- derr
	}()

	var j *job
	waitFor(t, "job running", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, id := range s.jobOrder {
			if cand := s.jobs[id]; cand != nil && cand.state.Load() == jobRunning {
				j = cand
				return true
			}
		}
		return false
	})

	cancel()
	<-errc
	waitFor(t, "job canceled", func() bool { return j.state.Load() == jobCanceled })
	if snap := s.stats.Snapshot(); snap.JobsCanceled != 1 {
		t.Fatalf("stats = %+v, want canceled 1", snap)
	}
	if s.cache.len() != 0 {
		t.Fatal("interrupted run was cached; replays would not be exact")
	}

	// The worker survives to serve the next job.
	resp := submit(t, ts, "bob", smallPlan)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel submit: status %d err %v", resp.StatusCode, err)
	}
	if stream, err := results.Read(bytes.NewReader(body)); err != nil || len(stream.Sessions()) != 1 {
		t.Fatalf("post-cancel stream: %v", err)
	}
}

// TestTenantFairnessOverHTTP: with submissions parked at the turnstile,
// slots go to tenants in turn — B's first job runs before A's second
// even though A submitted two jobs first.
func TestTenantFairnessOverHTTP(t *testing.T) {
	s := New(Options{QueueCap: 8}) // slots held back until everyone is in line
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Jobs that run until canceled: each holds the one slot until the
	// test has seen whose turn it was.
	long := `{"kind":"session","session":"quasi-entire","benchmarks":["DC-AI-C1"],"seed":3,"epochs":100000}`
	handlers := make(chan struct{}, 3)
	enqueue := func(tenant string, depth int64) {
		go func() {
			resp := submit(t, ts, tenant, long)
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			handlers <- struct{}{}
		}()
		waitFor(t, "queue depth", func() bool { return parked(s) == depth })
	}
	enqueue("a", 1)
	enqueue("a", 2)
	enqueue("b", 3)
	s.Start() // one slot

	var order []string
	for i := 0; i < 3; i++ {
		var running *job
		waitFor(t, "a job running", func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, id := range s.jobOrder {
				if j := s.jobs[id]; j.state.Load() == jobRunning {
					running = j
					return true
				}
			}
			return false
		})
		order = append(order, running.tenant)
		// Stop it the way an impatient drain would; its slot goes to the
		// next tenant in turn.
		running.cancel()
		waitFor(t, "the running job to stop", func() bool { return running.state.Load() == jobCanceled })
	}
	if want := []string{"a", "b", "a"}; order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("run tenant order %v, want %v", order, want)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-handlers:
		case <-time.After(30 * time.Second):
			t.Fatal("a released handler never returned")
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownCompletesInFlight: a patient drain lets the running job
// finish and stream its full response.
func TestShutdownCompletesInFlight(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: 4})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		body   []byte
	}
	got := make(chan result, 1)
	go func() {
		resp := submit(t, ts, "alice", smallPlan)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- result{resp.StatusCode, body}
	}()
	waitFor(t, "job picked up", func() bool { return s.stats.Snapshot().JobsAccepted == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case r := <-got:
		if r.status != http.StatusOK {
			t.Fatalf("in-flight job answered %d during drain, want 200", r.status)
		}
		if stream, err := results.Read(bytes.NewReader(r.body)); err != nil || len(stream.Sessions()) != 1 {
			t.Fatalf("drained job's stream incomplete: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight job never finished during drain")
	}

	// Post-drain submissions are refused.
	resp := submit(t, ts, "bob", smallPlan)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
}

// TestJobStatusAndStatsEndpoints: the observability surface.
func TestJobStatusAndStatsEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueCap: 4}, true)

	resp := submit(t, ts, "alice", smallPlan)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Job-Id")
	if id == "" {
		t.Fatal("submit response carries no X-Job-Id")
	}

	st, err := ts.Client().Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var status jobStatus
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if status.ID != id || status.State != "completed" || status.Records != 1 {
		t.Fatalf("job status = %+v", status)
	}
	if !strings.HasPrefix(status.CacheKey, "sha256:") {
		t.Fatalf("job status cache key %q", status.CacheKey)
	}
	if !bytes.Contains([]byte(status.Plan), []byte(`"benchmarks":["DC-AI-C1"]`)) {
		t.Fatalf("job status plan %s is not the canonical form", status.Plan)
	}

	missing, err := ts.Client().Get(ts.URL + "/jobs/j-404")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, missing.Body)
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job id: status %d, want 404", missing.StatusCode)
	}

	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if health["status"] != "ok" || health["suite_sha"] != s.SuiteSHA() {
		t.Fatalf("healthz = %v", health)
	}

	sr, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if stats.JobsAccepted != 1 || stats.JobsCompleted != 1 || stats.QueueCapacity != 4 || stats.Workers != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.QueueDepth != 0 || stats.WorkersBusy != 0 {
		t.Fatalf("idle server reports depth %d busy %d", stats.QueueDepth, stats.WorkersBusy)
	}
}

// TestSubmitValidation: malformed submissions are 400s that never
// touch the queue.
func TestSubmitValidation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueCap: 4}, true)
	for _, tc := range []struct {
		name, body string
	}{
		{"garbage", `{nope`},
		{"unknown field", `{"profile":true}`},
		{"unknown kind", `{"kind":"warmup"}`},
		{"unknown session", `{"session":"forever"}`},
		{"unknown benchmark", `{"benchmarks":["DC-AI-C99"]}`},
		{"unknown kernel", `{"kernel":"cuda"}`},
		{"unknown backend", `{"backend":"grpc"}`},
		{"unknown device", `{"kind":"characterize","device":"H100"}`},
	} {
		resp := submit(t, ts, "alice", tc.body)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if snap := s.stats.Snapshot(); snap.JobsAccepted != 0 {
		t.Fatalf("validation failures were admitted: %+v", snap)
	}
}

// TestRetiredPlanFieldIsRefused: a wire plan that still says how to
// tune the blocked kernel is a 400 that names the field, like any other
// field the wire shape does not have.
func TestRetiredPlanFieldIsRefused(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueCap: 4}, true)
	resp := submit(t, ts, "alice", `{"tune_from":"x"}`)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "tune_from") {
		t.Fatalf("status %d %q, want a 400 naming tune_from", resp.StatusCode, msg)
	}
}

// TestCacheKeysPinned: the result cache keys of a session, a
// characterization and a replay plan are the literal values the tree
// computed before the tuning field left the wire plan, so no cached
// result moved to another key.
func TestCacheKeysPinned(t *testing.T) {
	sha := core.NewRegistry().SHA()
	for _, c := range []struct {
		plan core.Plan
		want string
	}{
		{core.Plan{Kind: core.RunSession, Session: core.QuasiEntireSession, Benchmarks: []string{"DC-AI-C1"}, Seed: 42, Epochs: 1},
			"sha256:6094becd9b1672ed74458d12ed7f75917247a2c40c52ed12494c36c5e1b65aed"},
		{core.Plan{Kind: core.RunCharacterize},
			"sha256:633124b50beec84dfdace5bdeaa54befa4ebaafa24a3cb1ecc306eb496f0ba25"},
		{core.Plan{Kind: core.RunReplay, Seed: 1},
			"sha256:6698162142c3a5a3b6b2fd9909aa2b710a60e7e19bdd87b8b46769c15c971c2e"},
	} {
		canonical, err := c.plan.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if got := results.Key(sha, canonical); got != c.want {
			t.Errorf("%s under suite %s keys to %s, want %s", canonical, sha, got, c.want)
		}
	}
}

// TestConcurrentMixedKernelJobsStayExact: with Workers > 1 and
// submissions naming different kernels, the jobs really run at the same
// time — a run's kernel is a value its own tensors carry, so there is
// nothing to take turns on — and every response is byte-identical to
// the same plan run alone on a serial server, labelled with its own
// plan's kernel, and each is cached like any other.
func TestConcurrentMixedKernelJobsStayExact(t *testing.T) {
	// The cheap benchmark's record streams early and the expensive one
	// follows, so each job spends most of its run with a record out.
	plan := func(seed int, kernel string) string {
		return fmt.Sprintf(`{"kind":"session","session":"quasi-entire","benchmarks":["DC-AI-C16","DC-AI-C1"],"seed":%d,"epochs":1,"workers":1,%s}`, seed, kernel)
	}
	plans := []struct{ body, kernel string }{
		{plan(11, `"kernel":"naive"`), "naive"},
		{plan(12, `"kernel":"blocked"`), "blocked"},
		{plan(13, `"kernel":"blocked"`), "blocked"},
		{plan(14, `"kernel":"naive"`), "naive"},
		// No kernel runs on the default, blocked.
		{plan(15, `"shards":0`), "blocked"},
	}

	_, serial := newTestServer(t, Options{Workers: 1, QueueCap: 8}, true)
	want := make([][]byte, len(plans))
	for i, p := range plans {
		resp := submit(t, serial, "ref", p.body)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("reference run %d: status %d err %v: %s", i, resp.StatusCode, err, body)
		}
		want[i] = body
	}

	s, mixed := newTestServer(t, Options{Workers: 4, QueueCap: 8}, true)
	overlapped := watchMidRun(s, func(j *job) string { return j.runner.Meta().Kernel })

	got := make([][]byte, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = post(mixed, fmt.Sprintf("tenant-%d", i), p.body)
		}()
	}
	wg.Wait()
	sawOverlap := overlapped()
	for i, p := range plans {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("concurrent run %d diverged from its solo reference", i)
		}
		stream, err := results.Read(bytes.NewReader(got[i]))
		if err != nil || len(stream.Records) != 2 {
			t.Fatalf("concurrent run %d: %d records, err %v", i, len(stream.Records), err)
		}
		for _, rec := range stream.Records {
			if rec.Session.Kernel != p.kernel || rec.Run.Kernel != p.kernel {
				t.Errorf("run %d (%s): session says kernel %q, envelope says %q; want %q",
					i, rec.Session.ID, rec.Session.Kernel, rec.Run.Kernel, p.kernel)
			}
		}
	}
	if !sawOverlap {
		t.Error("no two jobs under different kernels were ever mid-run at the same instant: mixed-kernel tenants are being serialized")
	}

	// The blocked plans are in the cache now and replay byte-identically.
	for _, i := range []int{2, 4} {
		resp := submit(t, mixed, "again", plans[i].body)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(body, want[i]) {
			t.Errorf("resubmitted plan %d: X-Cache %q err %v, want a byte-identical hit", i, resp.Header.Get("X-Cache"), err)
		}
	}
}

// watchMidRun polls the ledger for two jobs with different labels that
// have each streamed a record and not yet finished — both inside their
// runs at that instant — until the returned function is called, which
// reports whether it ever saw that.
func watchMidRun(s *Server, label func(*job) string) (stop func() bool) {
	var overlapped atomic.Bool
	done, quit := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			var midRun []string
			s.mu.Lock()
			for _, j := range s.jobs {
				if j.state.Load() == jobRunning && j.records.Load() > 0 {
					midRun = append(midRun, label(j))
				}
			}
			s.mu.Unlock()
			for _, l := range midRun {
				if l != midRun[0] {
					overlapped.Store(true)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	return func() bool {
		close(quit)
		<-done
		return overlapped.Load()
	}
}

// TestConcurrentTelemetryJobsStayExact: "telemetry" is a plan knob like
// any other on the wire, because a run's trace is its own — two traced
// jobs mid-run at the same instant on a two-worker server each stream a
// trace record whose data is byte-identical to the one the library
// produces running the same plan alone, followed by a runmetrics
// record; and a traced stream is cached under its own key and replayed
// whole.
func TestConcurrentTelemetryJobsStayExact(t *testing.T) {
	// The plans differ in epochs, so their traces differ too.
	body := func(epochs int) string {
		return fmt.Sprintf(`{"kind":"session","session":"quasi-entire","benchmarks":["DC-AI-C16","DC-AI-C1"],"seed":21,"epochs":%d,"workers":1,"telemetry":true}`, epochs)
	}
	epochs := []int{2, 3}
	want := make([][]byte, len(epochs))
	for i, n := range epochs {
		runner, err := core.NewRunner(core.NewRegistry(), core.Plan{
			Kind: core.RunSession, Session: core.QuasiEntireSession, Benchmarks: []string{"DC-AI-C16", "DC-AI-C1"},
			Seed: 21, Epochs: n, Workers: 1, Telemetry: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run(context.Background(), func(core.Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(res.Trace); err != nil {
			t.Fatal(err)
		}
	}

	s, ts := newTestServer(t, Options{Workers: 2, QueueCap: 4}, true)
	overlapped := watchMidRun(s, func(j *job) string { return j.id })
	got := make([][]byte, len(epochs))
	errs := make([]error, len(epochs))
	var wg sync.WaitGroup
	for i, n := range epochs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = post(ts, fmt.Sprintf("tenant-%d", i), body(n))
		}()
	}
	wg.Wait()
	if !overlapped() {
		t.Error("the two traced jobs were never mid-run at the same instant: traced tenants are being serialized")
	}
	for i, n := range epochs {
		if errs[i] != nil {
			t.Fatalf("traced job %d: %v", i, errs[i])
		}
		var kinds []string
		for _, line := range bytes.Split(bytes.TrimSpace(got[i]), []byte("\n")) {
			var env struct {
				Kind string          `json:"kind"`
				Data json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal(line, &env); err != nil {
				t.Fatalf("traced job %d: %v in %s", i, err, line)
			}
			kinds = append(kinds, env.Kind)
			if env.Kind == "trace" && !bytes.Equal(env.Data, want[i]) {
				t.Errorf("traced job %d: served trace differs from the library's solo trace:\n%s\n%s", i, env.Data, want[i])
			}
		}
		if fmt.Sprint(kinds) != "[session session trace runmetrics]" {
			t.Errorf("traced job %d streamed %v, want two sessions, a trace and a runmetrics record", i, kinds)
		}
		resp := submit(t, ts, "again", body(n))
		again, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(again, got[i]) {
			t.Errorf("resubmitted traced plan %d: X-Cache %q err %v, want a byte-identical hit", i, resp.Header.Get("X-Cache"), err)
		}
	}
	// The untraced twin of a cached traced plan is a different plan.
	resp := submit(t, ts, "again", strings.Replace(body(epochs[0]), `,"telemetry":true`, "", 1))
	twin, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Header.Get("X-Cache") != "miss" || bytes.Contains(twin, []byte(`"kind":"trace"`)) {
		t.Errorf("untraced twin: X-Cache %q err %v trace %v, want a trace-free miss", resp.Header.Get("X-Cache"), err, bytes.Contains(twin, []byte(`"kind":"trace"`)))
	}
}

// TestDisconnectWhileQueuedFreesCapacity: a client abandoning a job
// that is still queued releases its queue slot immediately — later
// submissions must be admitted, not bounced with 429 off capacity held
// by a ghost.
func TestDisconnectWhileQueuedFreesCapacity(t *testing.T) {
	s := New(Options{QueueCap: 1}) // workers never started: jobs park in the queue
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", strings.NewReader(smallPlan))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "alice")
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, derr := ts.Client().Do(req)
		if derr == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "first job queued", func() bool { return parked(s) == 1 })

	cancel() // client walks away while queued
	<-firstDone
	waitFor(t, "capacity released", func() bool { return s.queue.depth() == 0 })
	if snap := s.stats.Snapshot(); snap.JobsCanceled != 1 || snap.QueueDepth != 0 {
		t.Fatalf("stats after queued disconnect = %+v, want canceled 1, depth 0", snap)
	}

	// The freed slot admits the next submission instead of rejecting it.
	secondDone := make(chan struct{})
	go func() {
		defer close(secondDone)
		resp := submit(t, ts, "bob", smallPlan)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	waitFor(t, "second job queued", func() bool { return parked(s) == 1 })
	if snap := s.stats.Snapshot(); snap.JobsRejected != 0 || snap.JobsAccepted != 2 {
		t.Fatalf("stats after resubmission = %+v, want rejected 0, accepted 2", snap)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-secondDone:
	case <-time.After(30 * time.Second):
		t.Fatal("drain left the second handler blocked")
	}
}

// TestQueuedJobVisibleInLedgerAndRejectionLeavesNoEntry: an admitted
// job is in the status ledger from the moment its X-Job-Id can reach
// the client (no transient 404 window), and a 429'd submission leaves
// no ledger entry behind.
func TestQueuedJobVisibleInLedgerAndRejectionLeavesNoEntry(t *testing.T) {
	s := New(Options{QueueCap: 1}) // workers never started
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp := submit(t, ts, "alice", smallPlan)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	waitFor(t, "first job queued", func() bool { return parked(s) == 1 })

	s.mu.Lock()
	if len(s.jobOrder) != 1 {
		s.mu.Unlock()
		t.Fatal("queued job missing from the status ledger")
	}
	id := s.jobOrder[0]
	s.mu.Unlock()

	st, err := ts.Client().Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var status jobStatus
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if st.StatusCode != http.StatusOK || status.State != "queued" {
		t.Fatalf("queued job status: HTTP %d, %+v", st.StatusCode, status)
	}

	// A shed submission (queue full) must not linger in the ledger.
	second := submit(t, ts, "bob", smallPlan)
	_, _ = io.Copy(io.Discard, second.Body)
	second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", second.StatusCode)
	}
	s.mu.Lock()
	ledger := len(s.jobOrder)
	entries := len(s.jobs)
	s.mu.Unlock()
	if ledger != 1 || entries != 1 {
		t.Fatalf("ledger holds %d/%d entries after a rejection, want 1/1", ledger, entries)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-firstDone
}

// TestImpatientShutdownHonorsDrainTimeout: once the drain deadline
// passes, Shutdown cancels the in-flight run (it stops at the next
// epoch boundary) and returns the deadline error instead of blocking
// until the run would have finished naturally.
func TestImpatientShutdownHonorsDrainTimeout(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: 4})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	long := `{"kind":"session","session":"quasi-entire","benchmarks":["DC-AI-C1"],"seed":9,"epochs":100000}`
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		resp := submit(t, ts, "alice", long)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	waitFor(t, "job running", func() bool { return s.stats.Snapshot().WorkersBusy == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient shutdown returned %v, want deadline exceeded", err)
	}
	select {
	case <-handlerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("impatient shutdown left the in-flight handler blocked")
	}
	if snap := s.stats.Snapshot(); snap.JobsCanceled != 1 || snap.WorkersBusy != 0 {
		t.Fatalf("stats after impatient shutdown = %+v, want canceled 1, busy 0", snap)
	}
	if s.cache.len() != 0 {
		t.Fatal("interrupted run was cached; replays would not be exact")
	}
}

// TestReplayAndCharacterizeKindsServe: the other run kinds flow
// through the same queue/stream/cache path.
func TestReplayAndCharacterizeKindsServe(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueCap: 8}, true)
	for _, tc := range []struct {
		name, body string
		sessions   int
	}{
		{"replay", `{"kind":"replay","benchmarks":["DC-AI-C1","DC-AI-C2"],"seed":5}`, 0},
		{"characterize", `{"kind":"characterize","benchmarks":["DC-AI-C1"]}`, 0},
	} {
		resp := submit(t, ts, "alice", tc.body)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d err %v body %s", tc.name, resp.StatusCode, err, body)
		}
		stream, err := results.Read(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: undecodable stream: %v", tc.name, err)
		}
		if len(stream.Records) == 0 {
			t.Fatalf("%s: empty stream", tc.name)
		}
		again := submit(t, ts, "alice", tc.body)
		againBody, err := io.ReadAll(again.Body)
		again.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if again.Header.Get("X-Cache") != "hit" || !bytes.Equal(body, againBody) {
			t.Fatalf("%s: resubmission missed the cache or diverged", tc.name)
		}
	}
}

// TestPanickingRunFailsOneJob: a run that panics fails its own job —
// state failed, a terminal error envelope on the stream, nothing
// cached, slot and gauges given back — and the server goes on to run
// the next submission on the same single slot.
func TestPanickingRunFailsOneJob(t *testing.T) {
	real := core.NewRegistry().ByID("DC-AI-C16")
	boom := *real
	boom.ID = "DC-AI-BOOM"
	boom.Factory = func(int64) models.Benchmark { panic("factory exploded") }
	s, ts := newTestServer(t, Options{
		Workers: 1, QueueCap: 4,
		Registry: &core.Registry{AIBench: []*core.Benchmark{real, &boom}},
	}, true)

	plan := func(id string) string {
		return fmt.Sprintf(`{"kind":"session","session":"quasi-entire","benchmarks":[%q],"seed":1,"epochs":1}`, id)
	}
	resp := submit(t, ts, "alice", plan("DC-AI-BOOM"))
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("panicking submit: status %d err %v", resp.StatusCode, err)
	}
	if !bytes.Contains(body, []byte(`"kind":"error"`)) || !bytes.Contains(body, []byte("run panicked: factory exploded")) {
		t.Fatalf("panicking run's stream carries no terminal error envelope: %s", body)
	}
	var status jobStatus
	st, err := ts.Client().Get(ts.URL + "/jobs/" + resp.Header.Get("X-Job-Id"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if status.State != "failed" || !strings.Contains(status.Error, "run panicked") {
		t.Fatalf("panicked job status = %+v, want failed with the panic as its error", status)
	}
	if snap := s.stats.Snapshot(); snap.JobsFailed != 1 || snap.QueueDepth != 0 || snap.WorkersBusy != 0 {
		t.Fatalf("stats after the panic = %+v, want failed 1 and both gauges zero", snap)
	}
	if s.cache.len() != 0 {
		t.Fatal("a panicked run was cached")
	}

	next := submit(t, ts, "bob", plan("DC-AI-C16"))
	nextBody, err := io.ReadAll(next.Body)
	next.Body.Close()
	if err != nil || next.StatusCode != http.StatusOK {
		t.Fatalf("submit after the panic: status %d err %v", next.StatusCode, err)
	}
	if stream, err := results.Read(bytes.NewReader(nextBody)); err != nil || len(stream.Sessions()) != 1 {
		t.Fatalf("submit after the panic did not stream a session: %v\n%s", err, nextBody)
	}
}
