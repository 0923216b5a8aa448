package core

import (
	"context"
	"testing"

	"aibench/internal/models"
	"aibench/internal/nn"
	"aibench/internal/tensor"
)

// noReportPhase is a benchmark whose one phase does not report: a step
// whose loss would be a mean over nothing, which both drivers refuse
// before the first step.
type noReportPhase struct{ arena tensor.Arena }

func (*noReportPhase) Quality() float64                   { return 0 }
func (*noReportPhase) Module() nn.Module                  { return models.Modules() }
func (f *noReportPhase) Arena() *tensor.Arena             { return &f.arena }
func (*noReportPhase) BeginEpoch()                        {}
func (*noReportPhase) StepsPerEpoch(int) int              { return 1 }
func (*noReportPhase) Phases() []models.PhaseSpec         { return []models.PhaseSpec{{Name: "step"}} }
func (*noReportPhase) BeginPhase(int, int) int            { return 0 }
func (*noReportPhase) Grain(int, int, int) (float64, int) { return 0, 0 }
func (*noReportPhase) PhaseParams(int) []*nn.Param        { return nil }
func (*noReportPhase) ApplyPhase(int)                     {}

// TestEngineThatCannotOpenIsTheBenchmarksError: a trainer that cannot
// come up is a real failure. A sweep returns it instead of an empty row
// set, and a session — sharded or serial — records it as that
// session's Error, under the benchmark's id, with no epochs, instead of
// failing the run.
func TestEngineThatCannotOpenIsTheBenchmarksError(t *testing.T) {
	b := &Benchmark{ID: "no-report", Factory: func(int64) models.Benchmark { return &noReportPhase{} }}
	ctx := context.Background()
	if rec, err := b.runSweep(ctx, Plan{ShardSweep: []int{1, 2}, Epochs: 1}, 1, nil); err == nil {
		t.Fatalf("sweep returned %+v and no error", rec)
	}
	for shards, want := range map[int]string{
		2: "dist: no-report declares no reporting phase",
		0: "models: benchmark declares no reporting phase",
	} {
		res, err := b.runSession(ctx, Plan{Session: QuasiEntireSession, Epochs: 2, Shards: shards}, 1, nil)
		if err != nil {
			t.Fatalf("shards=%d: session failed the run: %v", shards, err)
		}
		if res.ID != "no-report" || res.Error != want || res.Epochs != 0 || len(res.Losses) != 0 || res.ReachedGoal {
			t.Fatalf("shards=%d: session %+v: want id no-report, Error %q, no epochs and no goal", shards, res, want)
		}
	}
}
