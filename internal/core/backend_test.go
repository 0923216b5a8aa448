package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"aibench/internal/dist"
	"aibench/internal/models"
)

// flakyBackend wraps the local backend but loses a replica of one
// benchmark two epochs in — the backend-failure shape the session
// engine must contain per benchmark.
type flakyBackend struct {
	workers int
	failID  string
}

func (f *flakyBackend) Name() string { return "flaky-test" }
func (f *flakyBackend) Workers() int { return f.workers }

func (f *flakyBackend) Open(ctx context.Context, benchID string, factory models.Factory, seed int64) (dist.Group, error) {
	g, err := dist.NewLocal(f.workers).Open(ctx, benchID, factory, seed)
	if err != nil {
		return nil, err
	}
	if benchID == f.failID {
		return &flakyGroup{Group: g}, nil
	}
	return g, nil
}

type flakyGroup struct {
	dist.Group
	epochs int
}

func (g *flakyGroup) BeginEpoch() error {
	g.epochs++
	if g.epochs > 2 {
		return errors.New("dist: flaky-test backend: replica 1 exited mid-run (injected)")
	}
	return g.Group.BeginEpoch()
}

func init() {
	dist.Register("flaky-test", func(workers int) dist.Backend {
		return &flakyBackend{workers: workers, failID: "DC-AI-C16"}
	})
}

// TestBackendFailureContainedPerBenchmark pins the failure-domain
// contract of the backend redesign: a replica dying mid-session fails
// that one benchmark — error recorded, completed-epoch loss prefix
// kept — while sibling sessions in the same suite run finish bitwise
// identical to a clean run, and the run itself reports no error.
func TestBackendFailureContainedPerBenchmark(t *testing.T) {
	reg := NewRegistry()
	run := func(backend string) []SessionResult {
		runner, err := NewRunner(reg, Plan{
			Kind: RunSession, Benchmarks: []string{"DC-AI-C15", "DC-AI-C16"},
			Session: QuasiEntireSession, Epochs: 4, Seed: 42, Shards: 2,
			Backend: backend, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run(context.Background(), nil)
		if err != nil {
			t.Fatalf("suite run on %s backend errored (containment broken): %v", backend, err)
		}
		return res.Sessions
	}
	clean := run("local")
	flaky := run("flaky-test")

	victim := flaky[1]
	if victim.ID != "DC-AI-C16" || victim.Error == "" {
		t.Fatalf("victim session = %+v, want DC-AI-C16 with a recorded error", victim)
	}
	if !strings.Contains(victim.Error, "replica 1") {
		t.Fatalf("victim error %q does not name the lost replica", victim.Error)
	}
	if victim.Epochs != 2 || len(victim.Losses) != 2 {
		t.Fatalf("victim kept %d epochs / %d losses, want the completed prefix of 2", victim.Epochs, len(victim.Losses))
	}
	if victim.ReachedGoal {
		t.Fatal("failed quasi-entire session claims completion")
	}
	for e := range victim.Losses {
		if math.Float64bits(victim.Losses[e]) != math.Float64bits(clean[1].Losses[e]) {
			t.Fatalf("victim loss prefix diverged at epoch %d: %v vs %v", e+1, victim.Losses[e], clean[1].Losses[e])
		}
	}

	sibling, want := flaky[0], clean[0]
	if sibling.Error != "" || sibling.Epochs != want.Epochs || sibling.ReachedGoal != want.ReachedGoal {
		t.Fatalf("sibling session disturbed: %+v vs clean %+v", sibling, want)
	}
	if math.Float64bits(sibling.FinalQuality) != math.Float64bits(want.FinalQuality) {
		t.Fatalf("sibling quality %v differs bitwise from clean %v", sibling.FinalQuality, want.FinalQuality)
	}
	for e := range want.Losses {
		if math.Float64bits(sibling.Losses[e]) != math.Float64bits(want.Losses[e]) {
			t.Fatalf("sibling loss diverged at epoch %d: %v vs %v", e+1, sibling.Losses[e], want.Losses[e])
		}
	}
}
