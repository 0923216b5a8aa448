package dist_test

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"aibench/internal/core"
	"aibench/internal/dist"
	"aibench/internal/tensor"
)

// trainVia runs epochs through a dist.Engine on the given backend,
// under the process default kernel, and returns the per-epoch losses
// plus the final quality.
func trainVia(t *testing.T, id string, backend dist.Backend, epochs int) ([]float64, float64) {
	t.Helper()
	return trainViaCtx(context.Background(), t, id, backend, epochs)
}

// trainViaCtx is trainVia under whatever kernels ctx carries.
func trainViaCtx(ctx context.Context, t *testing.T, id string, backend dist.Backend, epochs int) ([]float64, float64) {
	t.Helper()
	eng, err := dist.New(ctx, id, findFactory(t, id), 42, backend)
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, epochs)
	for e := range losses {
		if losses[e], err = eng.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	q, err := eng.Quality()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return losses, q
}

func sameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values vs %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want bitwise %v", label, i, got[i], want[i])
		}
	}
}

// TestProcessEngineMatchesLocalBitwise is the tentpole guarantee: the
// process backend — replicas in child processes, every float crossing a
// pipe through the frame codec — trains bitwise identically to the
// in-process local backend at every shard count, for a single-phase CNN,
// a multi-phase WGAN (whose critic/generator steps also exercise the
// buffer-sync frames), a single-phase ranking model, a multi-phase
// search whose phases hand some ranks no grain — so a rank's reused
// reply buffers shrink and grow between phases — and the RGB-D face
// model, whose batch-norm buffers cross the frame codec every step.
func TestProcessEngineMatchesLocalBitwise(t *testing.T) {
	for _, id := range []string{"DC-AI-C1", "DC-AI-C2", "DC-AI-C16", "DC-AI-C17", "DC-AI-C8"} {
		baseLoss, baseQ := trainVia(t, id, dist.NewLocal(1), 2)
		for _, n := range []int{1, 2, 4} {
			ll, lq := trainVia(t, id, dist.NewLocal(n), 2)
			pl, pq := trainVia(t, id, dist.NewProcess(n), 2)
			sameFloats(t, id+"/local", ll, baseLoss)
			sameFloats(t, id+"/process", pl, baseLoss)
			if math.Float64bits(lq) != math.Float64bits(baseQ) || math.Float64bits(pq) != math.Float64bits(baseQ) {
				t.Fatalf("%s shards=%d: quality local=%v process=%v, want bitwise %v", id, n, lq, pq, baseQ)
			}
		}
	}
}

// TestProcessSteadyStateAllocatesNothing: once a process-backend engine
// has run one epoch and one evaluation, the parent's side of the next
// — every request written, every reply read and decoded, the reduce —
// allocates nothing. DC-AI-C16 is one phase; DC-AI-C17 has phases that
// hand a rank no grain, so its decodes shrink and grow again.
func TestProcessSteadyStateAllocatesNothing(t *testing.T) {
	for _, id := range []string{"DC-AI-C16", "DC-AI-C17"} {
		eng, err := dist.New(context.Background(), id, findFactory(t, id), 42, dist.NewProcess(2))
		if err != nil {
			t.Fatal(err)
		}
		round := func() error {
			if _, err := eng.TrainEpoch(); err != nil {
				return err
			}
			_, err := eng.Quality()
			return err
		}
		if err := round(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = round()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: a warmed epoch and evaluation allocated %d objects in the parent, want 0", id, n)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProcessBackendAcrossKernels re-checks local/process bit-identity
// under every registered compute kernel: the hello frame carries the
// run's kernel, so the children must dispatch their floats through the
// same kernel path the local replicas do.
func TestProcessBackendAcrossKernels(t *testing.T) {
	for _, kname := range tensor.KernelNames() {
		k, _ := tensor.LookupKernels(kname)
		ctx := tensor.WithRun(context.Background(), &tensor.Run{Kernels: k})
		ll, lq := trainViaCtx(ctx, t, "DC-AI-C1", dist.NewLocal(2), 2)
		pl, pq := trainViaCtx(ctx, t, "DC-AI-C1", dist.NewProcess(2), 2)
		sameFloats(t, "DC-AI-C1/"+kname, pl, ll)
		if math.Float64bits(pq) != math.Float64bits(lq) {
			t.Fatalf("kernel %s: process quality %v differs bitwise from local %v", kname, pq, lq)
		}
	}
}

// runBackendSession runs one benchmark through the Plan runner on the
// named backend with telemetry on, returning the session record and the
// run's deterministic trace plane.
func runBackendSession(t *testing.T, id, backend string, shards int) (core.SessionResult, []byte) {
	t.Helper()
	runner, err := core.NewRunner(core.NewRegistry(), core.Plan{
		Kind: core.RunSession, Benchmarks: []string{id}, Session: core.QuasiEntireSession,
		Epochs: 2, Seed: 42, Shards: shards, Backend: backend, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("telemetry run produced no trace")
	}
	trace, err := json.Marshal(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Sessions[0]
	if sr.Error != "" {
		t.Fatalf("%s on %s failed: %s", id, backend, sr.Error)
	}
	if sr.Shards != shards {
		t.Fatalf("%s on %s ran with %d shards, want %d", id, backend, sr.Shards, shards)
	}
	return sr, trace
}

// TestProcessSessionAndTracePlaneMatchLocal drives the whole stack —
// Plan.Backend through the session engine into dist — and demands the
// backends agree beyond losses: the deterministic telemetry plane (the
// canonical span tree plus the counter totals, with each child's
// capture merged back into the parent) must be byte-identical too,
// phase and replica span names included.
func TestProcessSessionAndTracePlaneMatchLocal(t *testing.T) {
	for _, c := range []struct {
		id     string
		shards int
	}{{"DC-AI-C1", 2}, {"DC-AI-C1", 4}, {"DC-AI-C16", 2}} {
		lres, ltrace := runBackendSession(t, c.id, "local", c.shards)
		pres, ptrace := runBackendSession(t, c.id, "process", c.shards)
		sameFloats(t, c.id+" session losses", pres.Losses, lres.Losses)
		if math.Float64bits(pres.FinalQuality) != math.Float64bits(lres.FinalQuality) {
			t.Fatalf("%s shards=%d: process quality %v differs bitwise from local %v", c.id, c.shards, pres.FinalQuality, lres.FinalQuality)
		}
		if string(ptrace) != string(ltrace) {
			t.Fatalf("%s shards=%d: deterministic trace planes differ:\nlocal:   %s\nprocess: %s", c.id, c.shards, ltrace, ptrace)
		}
	}
}

// TestProcessReplicaKilledMidEpoch is the crash-containment half of the
// tentpole: SIGKILLing one worker child turns the next epoch into a
// per-benchmark error naming the dead replica — never a parent crash or
// a hang — and the engine still closes cleanly.
func TestProcessReplicaKilledMidEpoch(t *testing.T) {
	eng, err := dist.New(context.Background(), "DC-AI-C16", findFactory(t, "DC-AI-C16"), 42, dist.NewProcess(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	pids := dist.EnginePIDs(eng)
	if len(pids) != 3 {
		t.Fatalf("engine reports %d worker pids, want 3", len(pids))
	}
	if err := syscall.Kill(pids[1], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, terr := eng.TrainEpoch()
	if terr == nil {
		t.Fatal("epoch after SIGKILL succeeded; want a per-benchmark error")
	}
	if !strings.Contains(terr.Error(), "replica 1") {
		t.Fatalf("error %q does not name the dead replica", terr)
	}
	// The group is broken: further collectives fail fast instead of
	// blocking on pipes to dead children.
	if _, qerr := eng.Quality(); qerr == nil {
		t.Fatal("quality on a broken group succeeded")
	}
	if cerr := eng.Close(); cerr != nil {
		t.Fatalf("closing a broken group: %v", cerr)
	}
}
