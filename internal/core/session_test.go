package core

import (
	"context"
	"testing"

	"aibench/internal/models"
	"aibench/internal/nn"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// noReportPhase is a benchmark whose one phase does not report: a step
// whose loss would be a mean over nothing, which dist refuses before
// the first step.
type noReportPhase struct{ arena tensor.Arena }

func (*noReportPhase) Name() string                       { return "no reporting phase" }
func (*noReportPhase) Quality() float64                   { return 0 }
func (*noReportPhase) LowerIsBetter() bool                { return false }
func (*noReportPhase) ScaledTarget() float64              { return 1 }
func (*noReportPhase) Module() nn.Module                  { return models.Modules() }
func (*noReportPhase) Spec() workload.Model               { return workload.Model{} }
func (f *noReportPhase) Arena() *tensor.Arena             { return &f.arena }
func (*noReportPhase) BeginEpoch()                        {}
func (*noReportPhase) StepsPerEpoch(int) int              { return 1 }
func (*noReportPhase) Phases() []models.PhaseSpec         { return []models.PhaseSpec{{Name: "step"}} }
func (*noReportPhase) BeginPhase(int, int) []models.Grain { return nil }
func (*noReportPhase) PhaseParams(int) []*nn.Param        { return nil }
func (*noReportPhase) ApplyPhase(int)                     {}

// TestEngineThatCannotOpenIsTheBenchmarksError: a dist group that
// cannot come up is a real failure. A sweep returns it instead of an
// empty row set, and a sharded session records it as that session's
// Error, with no epochs, instead of failing the run.
func TestEngineThatCannotOpenIsTheBenchmarksError(t *testing.T) {
	b := &Benchmark{ID: "no-report", Factory: func(int64) models.Benchmark { return &noReportPhase{} }}
	ctx := context.Background()
	if rec, err := b.runSweep(ctx, Plan{ShardSweep: []int{1, 2}, Epochs: 1}, 1, nil); err == nil {
		t.Fatalf("sweep returned %+v and no error", rec)
	}
	res, err := b.runSession(ctx, Plan{Session: QuasiEntireSession, Epochs: 2, Shards: 2}, 1, nil)
	if err != nil {
		t.Fatalf("session failed the run: %v", err)
	}
	if res.Error == "" || res.Epochs != 0 || len(res.Losses) != 0 || res.ReachedGoal {
		t.Fatalf("session %+v: want an Error, no epochs and no goal", res)
	}
}
