package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aibench/internal/gpusim"
	"aibench/internal/tensor"
)

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

// TestRunSuiteScaledDeterministic is the engine's core guarantee: the
// worker count is a pure scheduling knob. An 8-worker run must return
// bitwise-identical SessionResults (losses included) to a 1-worker run.
func TestRunSuiteScaledDeterministic(t *testing.T) {
	r := NewRegistry()
	cfg := SessionConfig{Kind: QuasiEntireSession, MaxEpochs: 2, Seed: 42}
	serial := RunSuiteScaled(r.All(), cfg, 1)
	parallel8 := RunSuiteScaled(r.All(), cfg, 8)
	sameSessionResults(t, parallel8, serial)

	if len(serial) != 24 {
		t.Fatalf("suite ran %d sessions, want 24", len(serial))
	}
	for i, b := range r.All() {
		if serial[i].ID != b.ID {
			t.Fatalf("result %d is %s, want registry order (%s)", i, serial[i].ID, b.ID)
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
	r := NewRegistry()
	var benches []*Benchmark
	for _, id := range []string{"DC-AI-C2", "DC-AI-C3", "DC-AI-C6", "DC-AI-C16", "DC-AI-C17", "MLPerf-RL"} {
		b := r.ByID(id)
		if b == nil {
			t.Fatalf("no benchmark %s", id)
		}
		benches = append(benches, b)
	}
	cfgs := []SessionConfig{
		{Kind: QuasiEntireSession, MaxEpochs: 2, Seed: 11},
		{Kind: QuasiEntireSession, MaxEpochs: 2, Seed: 11},
		{Kind: QuasiEntireSession, MaxEpochs: 2, Seed: 12},
		{Kind: QuasiEntireSession, MaxEpochs: 2, Seed: 11, Shards: 4},
	}
	want := make([][]SessionResult, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = RunSuiteScaled(benches, cfg, 1)
	}
	got := make([][]SessionResult, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = RunSuiteScaled(benches, cfg, 4)
		}()
	}
	wg.Wait()
	for i := range cfgs {
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

// TestRunSuiteScaledLogLinesIntact runs concurrent logged sessions and
// checks every line in the shared stream is a whole, well-formed
// progress line from exactly one session (no torn interleaving).
func TestRunSuiteScaledLogLinesIntact(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	bs := r.AIBench[:6]
	RunSuiteScaled(bs, SessionConfig{Kind: QuasiEntireSession, MaxEpochs: 1, Seed: 1, Log: &buf}, 6)
	ids := map[string]bool{}
	for _, b := range bs {
		ids[b.ID] = true
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 4 || !ids[fields[0]] || fields[1] != "epoch" {
			t.Fatalf("torn or malformed log line: %q", line)
		}
		lines++
	}
	if lines != len(bs) {
		t.Fatalf("got %d log lines, want one per session (%d)", lines, len(bs))
	}
}

// TestRunSuiteScaledStreamDeliversEveryResult checks the JSONL-backing
// stream: every completed session reaches the sink exactly once, sink
// contents match the returned slice, and the stream round-trips
// through JSON encoding (the run-all -out persistence format).
func TestRunSuiteScaledStreamDeliversEveryResult(t *testing.T) {
	r := NewRegistry()
	bs := r.AIBench[:5]
	cfg := SessionConfig{Kind: QuasiEntireSession, MaxEpochs: 1, Seed: 3}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	streamed := map[string]SessionResult{}
	results := RunSuiteScaledStream(context.Background(), bs, cfg, 4, func(res SessionResult) {
		if _, dup := streamed[res.ID]; dup {
			t.Errorf("result %s streamed twice", res.ID)
		}
		streamed[res.ID] = res
		enc.Encode(res)
	})
	if len(streamed) != len(bs) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(bs))
	}
	for _, res := range results {
		got, ok := streamed[res.ID]
		if !ok {
			t.Fatalf("result %s never streamed", res.ID)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("streamed %s differs from returned result", res.ID)
		}
	}
	dec := json.NewDecoder(&buf)
	lines := 0
	for dec.More() {
		var res SessionResult
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("JSONL line %d does not decode: %v", lines, err)
		}
		if !reflect.DeepEqual(res, streamed[res.ID]) {
			t.Fatalf("JSONL round-trip of %s lost data", res.ID)
		}
		lines++
	}
	if lines != len(bs) {
		t.Fatalf("JSONL stream has %d lines, want %d", lines, len(bs))
	}
}

// TestRunSuiteScaledStreamCancelled checks a dead context launches no
// session: the sink never fires and every slot is zero-valued.
func TestRunSuiteScaledStreamCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRegistry()
	cfg := SessionConfig{Kind: QuasiEntireSession, MaxEpochs: 1, Seed: 3}
	results := RunSuiteScaledStream(ctx, r.AIBench[:4], cfg, 2, func(SessionResult) {
		t.Error("sink fired under a pre-cancelled context")
	})
	for i, res := range results {
		if res.ID != "" {
			t.Fatalf("slot %d ran (%s) under a pre-cancelled context", i, res.ID)
		}
	}
}

// TestRunSuiteScaledShardsDeterministic checks suite fan-out composes
// with within-session sharding: a sharded pooled run equals a sharded
// serial run bitwise, and shardable benchmarks report their count.
func TestRunSuiteScaledShardsDeterministic(t *testing.T) {
	r := NewRegistry()
	bs := []*Benchmark{r.ByID("DC-AI-C1"), r.ByID("DC-AI-C4"), r.ByID("DC-AI-C10")}
	cfg := SessionConfig{Kind: QuasiEntireSession, MaxEpochs: 2, Seed: 42, Shards: 3}
	serial := RunSuiteScaled(bs, cfg, 1)
	pooled := RunSuiteScaled(bs, cfg, 3)
	sameSessionResults(t, pooled, serial)
	wantShards := map[string]int{"DC-AI-C1": 3, "DC-AI-C4": 0, "DC-AI-C10": 3}
	for _, res := range serial {
		if res.Shards != wantShards[res.ID] {
			t.Fatalf("%s ran with Shards=%d, want %d", res.ID, res.Shards, wantShards[res.ID])
		}
	}
}

// TestCharacterizeSuiteParallelMatchesSerial checks the pooled
// characterization is exactly the serial pipeline, in order.
func TestCharacterizeSuiteParallelMatchesSerial(t *testing.T) {
	r := NewRegistry()
	dev := gpusim.TitanXP()
	bs := append(r.AIBench[:4:4], r.MLPerf[:2]...)
	serial := CharacterizeSuite(bs, dev)
	pooled := CharacterizeSuiteParallel(bs, dev, 4)
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatal("parallel characterization differs from serial")
	}
}
