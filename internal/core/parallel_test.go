package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aibench/internal/gpusim"
	"aibench/internal/tensor"
)

// runPlan runs p through the Runner on the full registry.
func runPlan(t *testing.T, ctx context.Context, p Plan, sink func(Record) error) (*RunResult, error) {
	t.Helper()
	runner, err := NewRunner(NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	return runner.Run(ctx, sink)
}

// sessionsOf runs a session plan to completion.
func sessionsOf(t *testing.T, p Plan) []SessionResult {
	t.Helper()
	p.Kind = RunSession
	res, err := runPlan(t, context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Sessions
}

func idsOf(bs []*Benchmark) []string {
	ids := make([]string, len(bs))
	for i, b := range bs {
		ids[i] = b.ID
	}
	return ids
}

func sameSessionResults(t *testing.T, got, want []SessionResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Name != w.Name || g.Kind != w.Kind ||
			g.Epochs != w.Epochs || g.ReachedGoal != w.ReachedGoal {
			t.Fatalf("result %d metadata differs:\n got %+v\nwant %+v", i, g, w)
		}
		if math.Float64bits(g.FinalQuality) != math.Float64bits(w.FinalQuality) ||
			math.Float64bits(g.Target) != math.Float64bits(w.Target) {
			t.Fatalf("result %d quality differs: %v/%v vs %v/%v",
				i, g.FinalQuality, g.Target, w.FinalQuality, w.Target)
		}
		if len(g.Losses) != len(w.Losses) {
			t.Fatalf("result %d loss traces differ in length: %d vs %d", i, len(g.Losses), len(w.Losses))
		}
		for e := range g.Losses {
			if math.Float64bits(g.Losses[e]) != math.Float64bits(w.Losses[e]) {
				t.Fatalf("result %d (%s) epoch %d loss differs bitwise: %v vs %v",
					i, g.ID, e+1, g.Losses[e], w.Losses[e])
			}
		}
	}
}

// TestSessionsWorkersDeterministic is the suite loop's core guarantee:
// the worker count is a pure scheduling knob. An 8-worker run must
// return bitwise-identical SessionResults (losses included) to a
// 1-worker run, in registry order.
func TestSessionsWorkersDeterministic(t *testing.T) {
	p := Plan{Session: QuasiEntireSession, Epochs: 2, Seed: 42, Workers: 1}
	serial := sessionsOf(t, p)
	p.Workers = 8
	sameSessionResults(t, sessionsOf(t, p), serial)

	all := NewRegistry().All()
	if len(serial) != len(all) {
		t.Fatalf("suite ran %d sessions, want %d", len(serial), len(all))
	}
	for i, b := range all {
		if serial[i].ID != b.ID {
			t.Fatalf("result %d is %s, want registry order (%s)", i, serial[i].ID, b.ID)
		}
	}
}

// TestRunnerTrainsOnDerivedSeeds is the oracle that does not go through
// the suite loop: whatever the Runner files for a benchmark is bitwise
// what the kind's body measures when handed DeriveSeed(plan.Seed, id)
// directly — the public per-benchmark seed contract (aibench.DeriveSeed).
// A Runner that trained every benchmark on the raw plan seed would still
// agree with itself at any worker count; it does not agree with this.
func TestRunnerTrainsOnDerivedSeeds(t *testing.T) {
	ids := []string{"DC-AI-C16", "DC-AI-C4", "DC-AI-C10"}
	for _, shards := range []int{0, 2} {
		runner, err := NewRunner(NewRegistry(), Plan{
			Benchmarks: ids, Session: QuasiEntireSession, Epochs: 2, Seed: 42, Shards: shards, Workers: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := tensor.WithRun(context.Background(), &runner.run)
		var want []SessionResult
		for _, b := range runner.Benchmarks() {
			sr, err := b.runSession(ctx, runner.Plan(), DeriveSeed(42, b.ID), nil)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, sr)
		}
		sameSessionResults(t, res.Sessions, want)
	}

	res, err := runPlan(t, context.Background(), Plan{Kind: RunReplay, Benchmarks: ids, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want := NewRegistry().ByID(id).RunReplaySession(DeriveSeed(42, id))
		if res.Replays[i] != want {
			t.Fatalf("replay row %d = %+v, want the derived-seed session %+v", i, res.Replays[i], want)
		}
		if raw := NewRegistry().ByID(id).RunReplaySession(42); raw == want {
			t.Fatalf("%s replays the same on the raw and the derived seed: the check above proves nothing", id)
		}
	}
}

// TestConcurrentSuitesShareNoArena runs four suites at once, each with
// Workers: 4 — sixteen sessions' step arenas live on as many goroutines
// — one of them sharded four ways on the local backend, with every
// Reset poisoning what it rewinds. Each benchmark instance owns its
// arena and only its own goroutine touches it, so every suite must
// reproduce the serial run bit for bit; an arena shared between
// instances (a process global, a pooled slab) would hand a neighbour
// poisoned memory, and -race would name the two goroutines.
func TestConcurrentSuitesShareNoArena(t *testing.T) {
	defer tensor.SetArenaResetMode(tensor.SetArenaResetMode(tensor.ResetPoison))
	plan := func(seed int64, shards, workers int) Plan {
		return Plan{
			Benchmarks: []string{"DC-AI-C2", "DC-AI-C3", "DC-AI-C6", "DC-AI-C16", "DC-AI-C17", "MLPerf-RL"},
			Session:    QuasiEntireSession, Epochs: 2, Seed: seed, Shards: shards, Workers: workers,
		}
	}
	suites := []struct {
		seed   int64
		shards int
	}{{11, 0}, {11, 0}, {12, 0}, {11, 4}}
	want := make([][]SessionResult, len(suites))
	for i, s := range suites {
		want[i] = sessionsOf(t, plan(s.seed, s.shards, 1))
	}
	got := make([][]SessionResult, len(suites))
	var wg sync.WaitGroup
	for i, s := range suites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sessionsOf(t, plan(s.seed, s.shards, 4))
		}()
	}
	wg.Wait()
	for i := range suites {
		sameSessionResults(t, got[i], want[i])
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(42, "DC-AI-C1") != DeriveSeed(42, "DC-AI-C1") {
		t.Fatal("DeriveSeed is not stable")
	}
	if DeriveSeed(42, "DC-AI-C1") == DeriveSeed(42, "DC-AI-C2") {
		t.Fatal("DeriveSeed collides across benchmark ids")
	}
	if DeriveSeed(1, "DC-AI-C1") == DeriveSeed(2, "DC-AI-C1") {
		t.Fatal("DeriveSeed ignores the base seed")
	}
	seen := map[int64]string{}
	for _, b := range NewRegistry().All() {
		s := DeriveSeed(7, b.ID)
		if s < 0 {
			t.Fatalf("DeriveSeed(7, %s) = %d, want non-negative", b.ID, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", prev, b.ID)
		}
		seen[s] = b.ID
	}
}

// TestSessionLogLinesIntact runs concurrent logged sessions and checks
// every line in the shared stream is a whole, well-formed progress line
// from exactly one session (no torn interleaving).
func TestSessionLogLinesIntact(t *testing.T) {
	var buf bytes.Buffer
	ids := idsOf(NewRegistry().AIBench[:6])
	sessionsOf(t, Plan{Benchmarks: ids, Session: QuasiEntireSession, Epochs: 1, Seed: 1, Workers: 6, Log: &buf})
	known := map[string]bool{}
	for _, id := range ids {
		known[id] = true
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 4 || !known[fields[0]] || fields[1] != "epoch" {
			t.Fatalf("torn or malformed log line: %q", line)
		}
		lines++
	}
	if lines != len(ids) {
		t.Fatalf("got %d log lines, want one per session (%d)", lines, len(ids))
	}
}

// TestSessionSinkDeliversEveryResult checks the JSONL-backing stream:
// every completed session reaches the sink exactly once, sink contents
// match the returned slice, and the stream round-trips through JSON
// encoding (the run-all -out persistence format).
func TestSessionSinkDeliversEveryResult(t *testing.T) {
	ids := idsOf(NewRegistry().AIBench[:5])
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	streamed := map[string]SessionResult{}
	res, err := runPlan(t, context.Background(), Plan{
		Benchmarks: ids, Session: QuasiEntireSession, Epochs: 1, Seed: 3, Workers: 4,
	}, func(rec Record) error {
		sr := *rec.Session
		if _, dup := streamed[sr.ID]; dup {
			t.Errorf("result %s streamed twice", sr.ID)
		}
		streamed[sr.ID] = sr
		return enc.Encode(sr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(ids) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(ids))
	}
	for _, sr := range res.Sessions {
		got, ok := streamed[sr.ID]
		if !ok {
			t.Fatalf("result %s never streamed", sr.ID)
		}
		if !reflect.DeepEqual(got, sr) {
			t.Fatalf("streamed %s differs from returned result", sr.ID)
		}
	}
	dec := json.NewDecoder(&buf)
	lines := 0
	for dec.More() {
		var sr SessionResult
		if err := dec.Decode(&sr); err != nil {
			t.Fatalf("JSONL line %d does not decode: %v", lines, err)
		}
		if !reflect.DeepEqual(sr, streamed[sr.ID]) {
			t.Fatalf("JSONL round-trip of %s lost data", sr.ID)
		}
		lines++
	}
	if lines != len(ids) {
		t.Fatalf("JSONL stream has %d lines, want %d", lines, len(ids))
	}
}

// TestSessionShardsDeterministic checks suite fan-out composes with
// within-session sharding: a sharded pooled run equals a sharded
// serial run bitwise, and every benchmark reports its count.
func TestSessionShardsDeterministic(t *testing.T) {
	p := Plan{
		Benchmarks: []string{"DC-AI-C1", "DC-AI-C4", "DC-AI-C10"},
		Session:    QuasiEntireSession, Epochs: 2, Seed: 42, Shards: 3, Workers: 1,
	}
	serial := sessionsOf(t, p)
	p.Workers = 3
	sameSessionResults(t, sessionsOf(t, p), serial)
	for _, res := range serial {
		if res.Shards != 3 {
			t.Fatalf("%s ran with Shards=%d, want 3", res.ID, res.Shards)
		}
	}
}

// TestCharacterizePooledMatchesSerial checks the pooled
// characterization is exactly the serial pipeline, in order.
func TestCharacterizePooledMatchesSerial(t *testing.T) {
	r := NewRegistry()
	bs := append(r.AIBench[:4:4], r.MLPerf[:2]...)
	serial := CharacterizeSuite(bs, gpusim.TitanXP())
	res, err := runPlan(t, context.Background(), Plan{Kind: RunCharacterize, Benchmarks: idsOf(bs), Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, res.Characterizations) {
		t.Fatal("pooled characterization differs from serial")
	}
}

// filled counts the records a run kept: non-zero slots of a pooled
// kind, rows of a plan-order one.
func filled(res *RunResult) int { return len(res.Records()) }

// TestEveryKindSinkErrorAndCancel pins the suite loop's contract once
// for all four kinds, since all four run through it: a sink error on
// the first record is returned and nothing further launches, while a
// record already in flight still lands in the result and is still
// delivered (the sink sees everything the RunResult holds); a context
// cancelled before the run launches nothing, and one cancelled from the
// first record's sink launches nothing more — neither is an error, and
// the RunResult is the documented partial one (zero-valued slots for
// sessions and characterizations, compact rows for scaling and replay);
// and sink calls never overlap, whatever the width.
func TestEveryKindSinkErrorAndCancel(t *testing.T) {
	const workers = 2
	ids := []string{"DC-AI-C15", "DC-AI-C16", "DC-AI-C10", "DC-AI-C3", "DC-AI-C4"}
	kinds := []struct {
		plan  Plan
		width int // how many benchmarks the loop may have in flight
		slots int // len of the kind's result slice after a run that launched nothing
	}{
		{Plan{Kind: RunSession, Benchmarks: ids, Session: QuasiEntireSession, Epochs: 1, Seed: 5, Workers: workers}, workers, len(ids)},
		{Plan{Kind: RunCharacterize, Benchmarks: ids, Workers: workers}, workers, len(ids)},
		{Plan{Kind: RunScaling, Benchmarks: ids, ShardSweep: []int{1, 2}, Epochs: 1, Seed: 5}, 1, 0},
		{Plan{Kind: RunReplay, Benchmarks: ids, Seed: 5}, 1, 0},
	}
	slotsOf := func(res *RunResult) int {
		return len(res.Sessions) + len(res.Characterizations) + len(res.Scaling) + len(res.Replays)
	}
	for _, k := range kinds {
		t.Run(k.plan.Kind.String(), func(t *testing.T) {
			boom := errors.New("disk full")
			calls := 0
			res, err := runPlan(t, context.Background(), k.plan, func(Record) error {
				calls++
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("run error = %v, want the sink's", err)
			}
			if n := filled(res); n != calls || n < 1 || n > k.width {
				t.Fatalf("run kept %d records and delivered %d after the sink failed, want the same in-flight 1..%d", n, calls, k.width)
			}

			dead, cancel := context.WithCancel(context.Background())
			cancel()
			res, err = runPlan(t, dead, k.plan, func(Record) error {
				t.Error("sink fired under a pre-cancelled context")
				return nil
			})
			if err != nil || filled(res) != 0 || slotsOf(res) != k.slots {
				t.Fatalf("pre-cancelled run: err %v, %d records in %d slots, want nil, 0 in %d", err, filled(res), slotsOf(res), k.slots)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls = 0
			res, err = runPlan(t, ctx, k.plan, func(Record) error {
				calls++
				cancel()
				return nil
			})
			if err != nil {
				t.Fatalf("cancelled run returned %v; cancellation is not an error", err)
			}
			if n := filled(res); n != calls || n < 1 || n > k.width {
				t.Fatalf("cancelled run kept %d records and delivered %d, want the same in-flight 1..%d", n, calls, k.width)
			}

			var inside atomic.Int32
			p := k.plan
			p.Workers = 4
			res, err = runPlan(t, context.Background(), p, func(Record) error {
				if inside.Add(1) != 1 {
					t.Error("sink calls overlap")
				}
				time.Sleep(time.Millisecond)
				inside.Add(-1)
				return nil
			})
			if err != nil || filled(res) != len(ids) {
				t.Fatalf("clean run: err %v, %d records, want %d", err, filled(res), len(ids))
			}
		})
	}
}
