package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aibench"
	"aibench/internal/server"
)

// The two served workloads drive an in-process internal/server over
// loopback HTTP the way `aibench submit` does: POST a plan, read the
// NDJSON stream to its last byte. served-miss sends only plans the
// server has never seen, so every request walks decode → NewRunner →
// Canonical → fair queue → worker → envelope stream → cache put;
// served-replay sends only plans the set-up already ran, so every
// request is answered from the cache.

// The three request kinds of one served-miss job, in order.
var missKinds = [...]string{"replay", "characterize", "session"}

// servedPlan is the wire plan of one request kind.
func servedPlan(kind string, seed int64, smoke bool) string {
	switch kind {
	case "replay":
		return fmt.Sprintf(`{"kind":"replay","seed":%d}`, seed)
	case "characterize":
		return fmt.Sprintf(`{"kind":"characterize","seed":%d}`, seed)
	}
	epochs := 2
	if smoke {
		epochs = 1
	}
	return fmt.Sprintf(`{"kind":"session","session":"quasi-entire","benchmarks":["DC-AI-C16"],"epochs":%d,"seed":%d}`, epochs, seed)
}

// reply is what one POST came back with.
type reply struct {
	kind   string
	status int
	cache  string // the X-Cache header
	ms     float64
	ttfbMS float64 // traced requests only
	body   *bytes.Buffer
}

// tenant is one caller: its own connection, its own seed sequence, and
// reusable body buffers so that reading replies costs the harness no
// fresh memory.
type tenant struct {
	name   string
	client *http.Client
	// seed numbers this tenant's requests; base is where it started.
	seed, base int64
	bufs       []*bytes.Buffer

	// what the last block left
	lat     []float64
	replies []reply
	err     error
}

func (t *tenant) buffer(i int) *bytes.Buffer {
	for len(t.bufs) <= i {
		t.bufs = append(t.bufs, &bytes.Buffer{})
	}
	return t.bufs[i]
}

// servedStats counts what the responses said, for the per-layer share
// metrics; the script fixes what each must be.
type servedStats struct {
	requests, hits, rejected int
	bytes                    int64
	kindMS                   map[string][]float64
	ttfbMS                   []float64
}

func (s *servedStats) add(r reply, traced bool) {
	s.requests++
	if r.cache == "hit" {
		s.hits++
	}
	if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
		s.rejected++
	}
	s.bytes += int64(r.body.Len())
	if traced {
		if s.kindMS == nil {
			s.kindMS = map[string][]float64{}
		}
		s.kindMS[r.kind] = append(s.kindMS[r.kind], r.ms)
		s.ttfbMS = append(s.ttfbMS, r.ttfbMS)
	}
}

// servedEnv is a served workload, warm.
type servedEnv struct {
	h        *harness
	srv      *server.Server
	hs       *http.Server
	serveErr chan error
	url      string
	roster   int // records a whole-roster plan streams
	// lastJob is the most recent X-Job-Id a miss came back with: a job
	// the status ledger still holds.
	lastJob atomic.Value
	tenants []*tenant

	// served-miss: jobs per tenant per block
	cycles int

	// served-replay: requests per block, and the plans the set-up ran
	// with the bodies they produced
	replay  bool
	hits    int
	plans   []string
	bodies  [][]byte
	next    int
	faulted bool

	// lastOpt is how the block now awaiting verify ran.
	lastOpt blockOpt
	// traced and solo hold only the traced pass's blocks of that kind.
	all, traced, solo servedStats
	tracedSoloMS      []float64
	tracedDuoMS       []float64
	attempted, failed int
}

// setupServed starts the server on a loopback port and one client per
// tenant, fills the cache for the replay workload, and runs the warm-up
// blocks.
func setupServed(h *harness, replay bool, perBlock, warmBlocks int) (env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", h.cfg.workload, err)
	}
	e := &servedEnv{
		h:        h,
		srv:      server.New(server.Options{Workers: 1, QueueCap: 8}),
		serveErr: make(chan error, 1),
		url:      "http://" + ln.Addr().String(),
		roster:   len(aibench.NewSuite().All()),
		replay:   replay,
	}
	e.srv.Start()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() { e.serveErr <- e.hs.Serve(ln) }()

	names := []string{"tenant-a", "tenant-b"}
	if replay {
		names = names[:1]
		e.hits = perBlock
	} else {
		e.cycles = perBlock
	}
	for i, name := range names {
		// Disjoint per-tenant seed ranges, a function of -seed alone.
		base := h.cfg.seed*1_000_000_007 + int64(i)*500_000_000
		e.tenants = append(e.tenants, &tenant{
			name:   name,
			client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
			seed:   base, base: base,
		})
	}
	if replay {
		if err := e.fill(); err != nil {
			_ = e.close() // the fill error is the one worth reporting
			return nil, err
		}
	}
	for i := 0; i < warmBlocks; i++ {
		_, err := e.block(blockOpt{})
		if err == nil {
			err = h.warmed(e)
		}
		if err != nil {
			_ = e.close() // the block's error is the one worth reporting
			return nil, err
		}
	}
	return e, nil
}

// fill runs the eight plans the replay workload will ask for again,
// checks each stream, and keeps the bodies: every later hit must equal
// its miss byte for byte.
func (e *servedEnv) fill() error {
	t := e.tenants[0]
	for i := 0; i < 8; i++ {
		kind := missKinds[i%len(missKinds)]
		plan := servedPlan(kind, t.seed+int64(i), e.h.cfg.smoke)
		r, err := t.post(e, kind, plan, t.buffer(0), blockOpt{}, -1, 0)
		if err != nil {
			return err
		}
		e.attempted++
		if err := e.checkMiss(r); err != nil {
			e.failed++
			fmt.Fprintf(os.Stderr, "FAILED cache fill: %v\n", err)
		}
		e.plans = append(e.plans, plan)
		e.bodies = append(e.bodies, append([]byte(nil), r.body.Bytes()...))
	}
	return nil
}

// post sends one plan and reads the reply to its last byte.
func (t *tenant) post(e *servedEnv, kind, plan string, into *bytes.Buffer, opt blockOpt, parent, job int) (reply, error) {
	sp := &e.h.spans
	req, err := http.NewRequest(http.MethodPost, e.url+"/jobs", strings.NewReader(plan))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", t.name)
	r := reply{kind: kind, body: into}
	whole, first, rest := -1, -1, -1
	start := time.Now()
	if opt.traced {
		whole = sp.begin("POST /jobs "+kind, parent, job)
		first = sp.begin("first_byte", whole, job)
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() {
				r.ttfbMS = float64(time.Since(start)) / 1e6
				sp.end(first)
				rest = sp.begin("read_body", whole, job)
			},
		}))
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return r, fmt.Errorf("%s: POST /jobs: %w", e.h.cfg.workload, err)
	}
	into.Reset()
	_, err = into.ReadFrom(resp.Body)
	resp.Body.Close()
	r.ms = float64(time.Since(start)) / 1e6
	sp.end(rest)
	sp.end(whole)
	if err != nil {
		return r, fmt.Errorf("%s: reading reply: %w", e.h.cfg.workload, err)
	}
	r.status, r.cache = resp.StatusCode, resp.Header.Get("X-Cache")
	if id := resp.Header.Get("X-Job-Id"); id != "" {
		e.lastJob.Store(id)
	}
	return r, nil
}

// account files a reply under the stats of the block that sent it.
func (e *servedEnv) account(r reply, opt blockOpt) {
	e.all.add(r, false)
	switch {
	case opt.traced && opt.solo:
		e.solo.add(r, true)
	case opt.traced:
		e.traced.add(r, true)
	}
}

func (e *servedEnv) block(opt blockOpt) ([]float64, error) {
	if opt.traced && !e.lastOpt.traced {
		// The traced pass has a fixed number of blocks but starts after a
		// window of fixed length: give it seeds of its own, so that what
		// it sends, and the exact byte count that comes back, do not
		// depend on how many jobs the window fitted.
		for _, t := range e.tenants {
			t.seed = t.base + 250_000_000
		}
	}
	e.lastOpt = opt
	if e.replay {
		return e.replayBlock(opt)
	}
	return e.missBlock(opt)
}

// missBlock runs the block's cycles on every tenant at once and waits
// for all of them: a barrier, so the reference kernel that follows
// finds the machine idle.
func (e *servedEnv) missBlock(opt blockOpt) ([]float64, error) {
	active := e.tenants
	if opt.solo {
		active = active[:1]
	}
	var wg sync.WaitGroup
	for _, t := range active {
		wg.Add(1)
		go func(t *tenant) {
			defer wg.Done()
			t.runCycles(e, opt)
		}(t)
	}
	wg.Wait()
	var lat []float64
	for _, t := range active {
		if t.err != nil {
			return nil, t.err
		}
		lat = append(lat, t.lat...)
	}
	if opt.traced {
		if opt.solo {
			e.tracedSoloMS = append(e.tracedSoloMS, lat...)
		} else {
			e.tracedDuoMS = append(e.tracedDuoMS, lat...)
		}
	}
	return lat, nil
}

// runCycles is one tenant's share of a block: cycles of three requests,
// each plan carrying a seed the server has not seen.
func (t *tenant) runCycles(e *servedEnv, opt blockOpt) {
	t.lat, t.replies, t.err = t.lat[:0], t.replies[:0], nil
	for c := 0; c < e.cycles; c++ {
		job := e.h.nextJob()
		root := e.h.spans.begin("job", -1, job)
		start := time.Now()
		for k, kind := range missKinds {
			t.seed++
			r, err := t.post(e, kind, servedPlan(kind, t.seed, e.h.cfg.smoke), t.buffer(c*len(missKinds)+k), opt, root, job)
			if err != nil {
				t.err = err
				return
			}
			t.replies = append(t.replies, r)
		}
		t.lat = append(t.lat, float64(time.Since(start))/1e6)
		e.h.spans.end(root)
	}
}

// replayBlock asks for the filled plans round-robin, one request at a
// time, and compares every body as it arrives.
func (e *servedEnv) replayBlock(opt blockOpt) ([]float64, error) {
	t := e.tenants[0]
	lat := make([]float64, 0, e.hits)
	for i := 0; i < e.hits; i++ {
		n := e.next % len(e.plans)
		e.next++
		job := e.h.nextJob()
		r, err := t.post(e, "hit", e.plans[n], t.buffer(0), opt, -1, job)
		if err != nil {
			return nil, err
		}
		lat = append(lat, r.ms)
		got := r.body.Bytes()
		if e.h.cfg.fault == "corrupt-hit" && !e.faulted && len(got) > 0 {
			got[len(got)/2] ^= 0x20
			e.faulted = true
		}
		e.attempted++
		if err := checkHit(r, e.bodies[n]); err != nil {
			e.failed++
			fmt.Fprintf(os.Stderr, "FAILED job: %v\n", err)
		}
		e.account(r, opt)
	}
	return lat, nil
}

// checkHit holds a cached reply to the miss that filled the cache. The
// miss body was decoded and checked when it was produced, so byte
// equality carries that check over.
func checkHit(r reply, want []byte) error {
	switch {
	case r.status != http.StatusOK:
		return fmt.Errorf("hit answered %d", r.status)
	case r.cache != "hit":
		return fmt.Errorf("expected a cache hit, X-Cache says %q", r.cache)
	case !bytes.Equal(r.body.Bytes(), want):
		return fmt.Errorf("hit body (%d bytes) differs from the miss body that filled the cache (%d bytes)", r.body.Len(), len(want))
	}
	return nil
}

// checkMiss holds a fresh reply to what its plan must stream: a whole
// envelope stream of the expected record count.
func (e *servedEnv) checkMiss(r reply) error {
	records := e.roster
	if r.kind == "session" {
		records = 1
	}
	switch {
	case r.status != http.StatusOK:
		return fmt.Errorf("%s request answered %d: %s", r.kind, r.status, bytes.TrimSpace(r.body.Bytes()))
	case r.cache != "miss":
		return fmt.Errorf("%s request expected a cache miss, X-Cache says %q", r.kind, r.cache)
	}
	if err := checkStream(r.body.Bytes(), records); err != nil {
		return fmt.Errorf("%s request: %w", r.kind, err)
	}
	return nil
}

// verify checks the miss workload's held replies (a job fails if any of
// its three requests does) and reports the replay workload's inline
// comparisons.
func (e *servedEnv) verify() (attempted, failed int) {
	for _, t := range e.tenants {
		for c := 0; c+len(missKinds) <= len(t.replies); c += len(missKinds) {
			e.attempted++
			ok := true
			for _, r := range t.replies[c : c+len(missKinds)] {
				e.account(r, e.lastOpt)
				if err := e.checkMiss(r); err != nil {
					ok = false
					fmt.Fprintf(os.Stderr, "FAILED job: %v\n", err)
				}
			}
			if !ok {
				e.failed++
			}
		}
		t.replies = t.replies[:0]
	}
	attempted, failed = e.attempted, e.failed
	e.attempted, e.failed = 0, 0
	return attempted, failed
}

// close drains the server and waits for every goroutine it owns.
func (e *servedEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if herr := e.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-e.serveErr; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	for _, t := range e.tenants {
		t.client.CloseIdleConnections()
	}
	return err
}
