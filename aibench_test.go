package aibench_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"aibench"
)

func TestSuiteAPI(t *testing.T) {
	s := aibench.NewSuite()
	if len(s.AIBench()) != 17 || len(s.MLPerf()) != 7 || len(s.All()) != 24 {
		t.Fatalf("suite sizes %d/%d/%d", len(s.AIBench()), len(s.MLPerf()), len(s.All()))
	}
	if s.Benchmark("DC-AI-C1") == nil || s.Benchmark("bogus") != nil {
		t.Fatal("Benchmark lookup broken")
	}
	if len(s.Subset()) != 3 {
		t.Fatalf("subset size %d", len(s.Subset()))
	}
}

// runSessions runs a session plan through the suite's Runner.
func runSessions(t testing.TB, s *aibench.Suite, p aibench.Plan) []aibench.SessionResult {
	t.Helper()
	p.Kind = aibench.RunSession
	runner, err := s.NewRunner(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Sessions
}

func TestSuiteScaledSessionThroughAPI(t *testing.T) {
	res := runSessions(t, aibench.NewSuite(), aibench.Plan{
		Benchmarks: []string{"DC-AI-C16"}, Session: aibench.EntireSession, Seed: 42, Epochs: 60,
	})[0]
	if !res.ReachedGoal {
		t.Fatalf("learning-to-rank session missed target: %.3f vs %.3f", res.FinalQuality, res.Target)
	}
	if len(res.Losses) != res.Epochs {
		t.Fatalf("loss trace %d != epochs %d", len(res.Losses), res.Epochs)
	}
}

// TestPlanSessionsMatchSerialLoop pins the acceptance guarantee of the
// pooled suite loop: a Plan suite run across 4 workers produces results
// bitwise identical (losses included) to the same plan at Workers 1 —
// a plain serial loop over Suite.All() in registry order. (That each
// session trains on DeriveSeed(plan.Seed, id) is pinned where the raw
// seed is reachable: core's TestRunnerTrainsOnDerivedSeeds.)
func TestPlanSessionsMatchSerialLoop(t *testing.T) {
	s := aibench.NewSuite()
	plan := aibench.Plan{Session: aibench.QuasiEntireSession, Seed: 42, Epochs: 1, Workers: 1}
	serial := runSessions(t, s, plan)
	plan.Workers = 4
	pooled := runSessions(t, s, plan)

	if len(pooled) != len(serial) || len(serial) != len(s.All()) {
		t.Fatalf("pooled ran %d sessions, serial %d, suite has %d", len(pooled), len(serial), len(s.All()))
	}
	for i := range pooled {
		p, w := pooled[i], serial[i]
		if p.ID != s.All()[i].ID || p.ID != w.ID || p.Epochs != w.Epochs || p.ReachedGoal != w.ReachedGoal {
			t.Fatalf("session %d differs:\npooled %+v\nserial %+v", i, p, w)
		}
		if math.Float64bits(p.FinalQuality) != math.Float64bits(w.FinalQuality) {
			t.Fatalf("session %s quality differs: %v vs %v", p.ID, p.FinalQuality, w.FinalQuality)
		}
		for e := range p.Losses {
			if math.Float64bits(p.Losses[e]) != math.Float64bits(w.Losses[e]) {
				t.Fatalf("session %s epoch %d loss differs: %v vs %v", p.ID, e+1, p.Losses[e], w.Losses[e])
			}
		}
	}
}

// TestRecommendationSeed12Terminates is the regression test for the
// rejection-sampling hang PR 13's benchmark found: at plan seed 12 the
// recommendation dataset has a user with no item past the affinity
// threshold, and DC-AI-C10 never finished its first batch.
func TestRecommendationSeed12Terminates(t *testing.T) {
	runner, err := aibench.NewSuite().NewRunner(aibench.Plan{
		Kind: aibench.RunSession, Session: aibench.QuasiEntireSession,
		Benchmarks: []string{"DC-AI-C10", "MLPerf-RC"}, Seed: 12, Epochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		res, err := runner.Run(context.Background(), nil)
		if err == nil && (len(res.Sessions) != 2 || res.Sessions[0].Epochs != 1 || res.Sessions[1].Epochs != 1) {
			err = fmt.Errorf("sessions = %+v, want two one-epoch sessions", res.Sessions)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("seed-12 recommendation sessions did not finish one epoch")
	}
}

func TestCharacterizeAllParallel(t *testing.T) {
	s := aibench.NewSuite()
	runner, err := s.NewRunner(aibench.Plan{
		Kind: aibench.RunCharacterize, Device: aibench.TitanXP(), Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Characterizations
	if len(cs) != 24 {
		t.Fatalf("characterized %d benchmarks, want 24", len(cs))
	}
	for i, b := range s.All() {
		if cs[i].ID != b.ID {
			t.Fatalf("characterization %d is %s, want registry order (%s)", i, cs[i].ID, b.ID)
		}
	}
}

func TestSuiteCostsHeadlines(t *testing.T) {
	c := aibench.NewSuite().Costs()
	if c.SubsetVsAIBench < 0.39 || c.SubsetVsAIBench > 0.43 {
		t.Fatalf("subset savings %.3f, want ≈0.41", c.SubsetVsAIBench)
	}
}

func TestSuiteReports(t *testing.T) {
	s := aibench.NewSuite()
	for _, name := range aibench.ReportNames() {
		var buf bytes.Buffer
		if !s.Report(name, &buf, aibench.TitanXP(), 1) {
			t.Fatalf("unknown report %s", name)
		}
		if buf.Len() == 0 {
			t.Fatalf("report %s produced no output", name)
		}
	}
	var buf bytes.Buffer
	if s.Report("nonsense", &buf, aibench.TitanXP(), 1) {
		t.Fatal("unknown report name accepted")
	}
}

func TestSuiteCharacterize(t *testing.T) {
	s := aibench.NewSuite()
	c := s.Characterize("DC-AI-C3", aibench.TitanXP())
	if c.MParams < 30 { // Transformer-base scale
		t.Fatalf("transformer params %.1fM", c.MParams)
	}
	if !strings.Contains(c.Task, "Text") {
		t.Fatalf("task = %q", c.Task)
	}
}

func TestDevices(t *testing.T) {
	if aibench.TitanRTX().PeakGFLOPs() <= aibench.TitanXP().PeakGFLOPs() {
		t.Fatal("RTX should out-peak XP")
	}
}

// TestPlanRunnerPublicAPI smoke-tests the unified execution API from
// the public package: plan validation, a replay run, and the run-report
// renderer shared with `aibench report`.
func TestPlanRunnerPublicAPI(t *testing.T) {
	s := aibench.NewSuite()
	if _, err := s.NewRunner(aibench.Plan{Benchmarks: []string{"nope"}}); err == nil {
		t.Fatal("unknown benchmark id accepted")
	}
	if _, err := s.NewRunner(aibench.Plan{Kernel: "nope"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	runner, err := s.NewRunner(aibench.Plan{Kind: aibench.RunReplay, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if meta := runner.Meta(); meta.SuiteSHA == "" || meta.Kernel == "" {
		t.Fatalf("run meta incomplete: %+v", meta)
	}
	res, err := runner.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replays) != 24 {
		t.Fatalf("replayed %d sessions, want 24", len(res.Replays))
	}
	var buf bytes.Buffer
	if !aibench.RenderRunReport("replays", &buf, res.Records()) {
		t.Fatal("replays report unknown")
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 25 {
		t.Fatalf("replay report has %d lines, want header + 24 rows", lines)
	}
	if aibench.RenderRunReport("hologram", &buf, nil) {
		t.Fatal("unknown run report accepted")
	}
	for _, n := range aibench.RunReportNames() {
		if _, ok := aibench.RunReportKind(n); !ok {
			t.Errorf("RunReportKind does not know %q", n)
		}
	}
}

// TestBackendRegistryPublicAPI pins the backend half of the Plan
// surface: the registry lists local and process, NewRunner rejects
// unknown names at build time, and the run meta records the selection.
func TestBackendRegistryPublicAPI(t *testing.T) {
	s := aibench.NewSuite()
	names := aibench.BackendNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	if !have["local"] || !have["process"] {
		t.Fatalf("BackendNames() = %v, want local and process registered", names)
	}
	if _, err := s.NewRunner(aibench.Plan{Backend: "hologram"}); err == nil ||
		!strings.Contains(err.Error(), "unknown dist backend") {
		t.Fatalf("unknown backend error = %v, want a build-time rejection naming it", err)
	}
	runner, err := s.NewRunner(aibench.Plan{
		Kind: aibench.RunSession, Benchmarks: []string{"DC-AI-C15"},
		Session: aibench.QuasiEntireSession, Epochs: 1, Shards: 2, Backend: "local",
	})
	if err != nil {
		t.Fatal(err)
	}
	if runner.Meta().Backend != "local" {
		t.Fatalf("run meta backend = %q, want %q", runner.Meta().Backend, "local")
	}
}

// TestResultWriterRoundTripPublicAPI drives the public persistence
// surface: Runner → NewResultWriter → ReadResults → RenderRunReport,
// with the rebuilt report byte-identical to the live one.
func TestResultWriterRoundTripPublicAPI(t *testing.T) {
	s := aibench.NewSuite()
	runner, err := s.NewRunner(aibench.Plan{Kind: aibench.RunReplay, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	w := aibench.NewResultWriter(&file, runner.Meta())
	res, err := runner.Run(context.Background(), w.Write)
	if err != nil {
		t.Fatal(err)
	}
	if w.Count() != 24 {
		t.Fatalf("persisted %d records, want 24", w.Count())
	}
	stream, err := aibench.ReadResults(&file)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Skipped != 0 || len(stream.Records) != 24 || len(stream.Runs) != 1 {
		t.Fatalf("stream = %d records, %d runs, %d skipped", len(stream.Records), len(stream.Runs), stream.Skipped)
	}
	var live, rebuilt bytes.Buffer
	aibench.RenderRunReport("replays", &live, res.Records())
	aibench.RenderRunReport("replays", &rebuilt, stream.Records)
	if live.String() != rebuilt.String() {
		t.Fatalf("rebuilt report differs:\nlive:\n%s\nrebuilt:\n%s", live.String(), rebuilt.String())
	}
}
