package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"aibench/internal/tensor"
)

// TestNewRunnerValidation pins the build-time contract: every malformed
// plan is an error naming the problem, never a panic later.
func TestNewRunnerValidation(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		name string
		p    Plan
		want string
	}{
		{"unknown benchmark", Plan{Benchmarks: []string{"DC-AI-C99"}}, "unknown benchmark"},
		{"unknown kernel", Plan{Kernel: "vectorized-fantasy"}, "unknown kernel"},
		{"unknown backend", Plan{Backend: "quantum-fantasy"}, "unknown dist backend"},
		{"bad kind", Plan{Kind: RunKind(42)}, "not a run kind"},
		{"bad session kind", Plan{Kind: RunSession, Session: SessionKind(7)}, "not a session kind"},
		{"bad sweep", Plan{Kind: RunScaling, ShardSweep: []int{1, 0}}, "shard count 0"},
		{"negative shards", Plan{Shards: -1}, "Plan.Shards"},
		{"negative epochs", Plan{Epochs: -5}, "Plan.Epochs"},
	}
	for _, c := range cases {
		if _, err := NewRunner(r, c.p); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if _, err := NewRunner(nil, Plan{}); err == nil {
		t.Error("nil registry accepted")
	}

	// Defaults: empty selection resolves to the whole suite, an empty
	// scaling sweep to 1,2,4, and the zero device to the TITAN XP.
	runner, err := NewRunner(r, Plan{Kind: RunScaling})
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if got := len(runner.Benchmarks()); got != 24 {
		t.Errorf("empty selection resolved to %d benchmarks, want 24", got)
	}
	p := runner.Plan()
	if len(p.ShardSweep) != 3 || p.ShardSweep[0] != 1 || p.ShardSweep[2] != 4 {
		t.Errorf("default sweep %v, want [1 2 4]", p.ShardSweep)
	}
	if p.Device.Name == "" {
		t.Error("device default not filled")
	}
}

// cancelOnFirstLine cancels its context the first time a progress line
// is written — i.e. right after the session's first epoch completes.
type cancelOnFirstLine struct {
	cancel context.CancelFunc
	lines  int
}

func (c *cancelOnFirstLine) Write(p []byte) (int, error) {
	c.lines++
	if c.lines == 1 {
		c.cancel()
	}
	return len(p), nil
}

// TestSessionEpochLoopHonoursContext pins the per-epoch cancellation
// satellite: a session whose context is cancelled mid-run stops at the
// next epoch boundary instead of training out its epoch budget.
func TestSessionEpochLoopHonoursContext(t *testing.T) {
	reg := NewRegistry()
	b := reg.ByID("DC-AI-C15")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelOnFirstLine{cancel: cancel}
	res, err := b.runSession(ctx, Plan{Session: QuasiEntireSession, Epochs: 50, Log: w}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled session not marked Interrupted")
	}
	if res.Epochs == 0 || res.Epochs >= 50 {
		t.Fatalf("cancelled session trained %d epochs, want the completed prefix (1..49)", res.Epochs)
	}
	if res.ReachedGoal {
		t.Fatal("interrupted quasi-entire session claims completion")
	}
	if len(res.Losses) != res.Epochs {
		t.Fatalf("loss trace %d != completed epochs %d", len(res.Losses), res.Epochs)
	}
}

// TestRunnerAppliesPlanKernel checks the kernel selected by a validated
// plan is the one sessions dispatch to and record.
func TestRunnerAppliesPlanKernel(t *testing.T) {
	reg := NewRegistry()
	runner, err := NewRunner(reg, Plan{
		Kind: RunSession, Benchmarks: []string{"DC-AI-C15"},
		Session: QuasiEntireSession, Epochs: 1, Seed: 7, Kernel: "naive",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions[0].Kernel != "naive" {
		t.Fatalf("session dispatched to %q, want the plan's %q", res.Sessions[0].Kernel, "naive")
	}
	if runner.Meta().Kernel != "naive" {
		t.Fatalf("run meta records kernel %q, want %q", runner.Meta().Kernel, "naive")
	}
}

// tuneStream writes a minimal tuneconfig JSONL stream matching this
// machine's (GOARCH, GOMAXPROCS) key.
func tuneStream(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tune.jsonl")
	line := fmt.Sprintf(`{"v":1,"kind":"tuneconfig","run":{},"data":{"kernel":"blocked","goarch":%q,"gomaxprocs":%d,"parallel_threshold":65536,"entries":[{"op":"gemm","shape_class":"square","mr":2,"nr":8,"k_unroll":2,"block_m":128,"block_n":128}]}}`,
		runtime.GOARCH, runtime.GOMAXPROCS(0))
	if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunnerTuneFrom pins the tune → run round trip: a persisted
// config loads at build time into the blocked kernel the run carries,
// lands in RunMeta as provenance, and the session's numbers are
// bitwise identical to a naive run — the whole point of tuning being a
// pure perf knob.
func TestRunnerTuneFrom(t *testing.T) {
	reg := NewRegistry()
	path := tuneStream(t)

	// Build-time validation: naive rejects TuneFrom, "tuned" is no
	// kernel, a missing file and a foreign-architecture stream fail
	// eagerly.
	if _, err := NewRunner(reg, Plan{Kernel: "naive", TuneFrom: path}); err == nil || !strings.Contains(err.Error(), `"blocked" kernel`) {
		t.Fatalf("TuneFrom with naive kernel: err = %v, want kernel mismatch", err)
	}
	if _, err := NewRunner(reg, Plan{Kernel: "tuned"}); err == nil || !strings.Contains(err.Error(), "blocked, naive") {
		t.Fatalf("Kernel tuned: err = %v, want an unknown kernel naming blocked, naive", err)
	}
	if _, err := NewRunner(reg, Plan{TuneFrom: filepath.Join(t.TempDir(), "absent.jsonl")}); err == nil {
		t.Fatal("TuneFrom with a missing file built a runner")
	}
	foreign := filepath.Join(t.TempDir(), "foreign.jsonl")
	if err := os.WriteFile(foreign, []byte(`{"v":1,"kind":"tuneconfig","run":{},"data":{"kernel":"blocked","goarch":"no-such-arch","gomaxprocs":1}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(reg, Plan{TuneFrom: foreign}); err == nil {
		t.Fatal("TuneFrom selected a foreign-architecture config")
	}

	plan := Plan{
		Kind: RunSession, Benchmarks: []string{"DC-AI-C15"},
		Session: QuasiEntireSession, Epochs: 2, Seed: 7,
		Kernel: "blocked", TuneFrom: path,
	}
	runner, err := NewRunner(reg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.Meta(); got.Tuning != path || got.Kernel != "blocked" {
		t.Fatalf("RunMeta kernel %q tuning %q, want blocked from the stream path %q", got.Kernel, got.Tuning, path)
	}
	if got, _ := tensor.TuningOf(runner.run.Kernels); got.Threshold != 65536 {
		t.Fatalf("the runner's kernel forks at %d, want the config's 65536", got.Threshold)
	}
	res, err := runner.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	builtin, _ := tensor.LookupKernels("blocked")
	if got, _ := tensor.TuningOf(builtin); got != tensor.DefaultTuning() {
		t.Fatalf("the run moved the builtin blocked kernel to %+v", got)
	}

	// TuneFrom alone is the same plan: same runner, same cache key.
	implied := plan
	implied.Kernel = ""
	irunner, err := NewRunner(reg, implied)
	if err != nil {
		t.Fatalf("TuneFrom without a kernel: %v", err)
	}
	if irunner.Meta() != runner.Meta() {
		t.Fatalf("TuneFrom alone resolved to %+v, want %+v", irunner.Meta(), runner.Meta())
	}
	wantKey, _ := plan.Canonical()
	if gotKey, _ := implied.Canonical(); !bytes.Equal(gotKey, wantKey) {
		t.Fatalf("TuneFrom alone canonicalizes to %s, want %s", gotKey, wantKey)
	}

	naive, err := NewRunner(reg, Plan{
		Kind: RunSession, Benchmarks: []string{"DC-AI-C15"},
		Session: QuasiEntireSession, Epochs: 2, Seed: 7, Kernel: "naive",
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Meta().Tuning != "" {
		t.Fatalf("naive RunMeta.Tuning = %q, want empty", naive.Meta().Tuning)
	}
	got, ref := res.Sessions[0], want.Sessions[0]
	if math.Float64bits(got.FinalQuality) != math.Float64bits(ref.FinalQuality) || len(got.Losses) != len(ref.Losses) {
		t.Fatalf("tuned vs naive session differ: %+v vs %+v", got, ref)
	}
	for e := range ref.Losses {
		if math.Float64bits(got.Losses[e]) != math.Float64bits(ref.Losses[e]) {
			t.Fatalf("epoch %d loss differs under tuning: %v vs %v", e+1, got.Losses[e], ref.Losses[e])
		}
	}
}

// TestRunnerScalingAndCharacterize exercises the two analytic run kinds
// through the same engine.
func TestRunnerScalingAndCharacterize(t *testing.T) {
	reg := NewRegistry()
	runner, err := NewRunner(reg, Plan{
		Kind: RunScaling, Benchmarks: []string{"DC-AI-C15"}, ShardSweep: []int{1}, Epochs: 1, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scaling) != 1 || len(res.Scaling[0].Points) != 1 || res.Scaling[0].Points[0].Shards != 1 {
		t.Fatalf("scaling run produced %+v", res.Scaling)
	}

	runner, err = NewRunner(reg, Plan{Kind: RunCharacterize, Benchmarks: []string{"DC-AI-C16", "DC-AI-C1"}})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []RecordKind
	res, err = runner.Run(context.Background(), func(r Record) error {
		streamed = append(streamed, r.Kind)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Characterizations) != 2 || res.Characterizations[0].ID != "DC-AI-C16" || res.Characterizations[1].ID != "DC-AI-C1" {
		t.Fatalf("characterize run lost plan order: %+v", res.Characterizations)
	}
	if len(streamed) != 2 || streamed[0] != KindCharacterization {
		t.Fatalf("sink saw %v", streamed)
	}
}

// TestRenderSessionsRestoresRegistryOrder checks run-report renderers
// sort completion-order records back into registry order and drop
// never-launched zero slots, the property that makes rebuilt reports
// byte-identical to live ones.
func TestRenderSessionsRestoresRegistryOrder(t *testing.T) {
	rs := []SessionResult{
		{ID: "MLPerf-RL", Name: "rl"},
		{}, // never launched
		{ID: "DC-AI-C1", Name: "ic"},
	}
	var buf bytes.Buffer
	RenderSessions(&buf, rs)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "DC-AI-C1") || !strings.HasPrefix(lines[2], "MLPerf-RL") {
		t.Fatalf("rows out of registry order:\n%s", buf.String())
	}
}

// TestRunReportKindCoversEveryName keeps the name→kind map in sync with
// the advertised report list.
func TestRunReportKindCoversEveryName(t *testing.T) {
	for _, n := range RunReportNames() {
		if _, ok := RunReportKind(n); !ok {
			t.Errorf("RunReportKind does not know %q", n)
		}
	}
	if _, ok := RunReportKind("hologram"); ok {
		t.Error("RunReportKind accepted an unknown name")
	}
}
