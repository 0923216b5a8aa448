package dist_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"aibench/internal/core"
	"aibench/internal/dist"
	"aibench/internal/models"
	"aibench/internal/tensor"
)

// shardedIDs is the whole registry, spanning the suite's model
// families: CNN (C1, C8 RGB-D faces, C15), embedding (C7 triplet-loss
// faces, C10, C16), GAN (C2 WGAN, C5 CycleGAN), captioning (C4),
// recurrent/seq (C6 speech, C14 summarization, MLPerf-TR), transformer
// (C3), codec (C12), voxel reconstruction (C13), NAS (C17), detection
// (C9 and its MLPerf Mask R-CNN twin, MLPerf-ODL), video prediction
// (C11), reinforcement learning (MLPerf-RL), and the MLPerf twins of
// C1/C3/C10. C2, C5, C6, and C17 train multi-phase (critic/generator,
// TBPTT segments, weights/controller).
var shardedIDs = []string{
	"DC-AI-C1", "DC-AI-C2", "DC-AI-C3", "DC-AI-C4", "DC-AI-C5", "DC-AI-C6",
	"DC-AI-C7", "DC-AI-C8", "DC-AI-C9", "DC-AI-C10", "DC-AI-C11", "DC-AI-C12",
	"DC-AI-C13", "DC-AI-C14", "DC-AI-C15", "DC-AI-C16", "DC-AI-C17",
	"MLPerf-IC", "MLPerf-ODL", "MLPerf-ODH", "MLPerf-TR", "MLPerf-TN",
	"MLPerf-RC", "MLPerf-RL",
}

// sessionOf runs a one-benchmark session plan through the Plan Runner.
func sessionOf(t *testing.T, p core.Plan) core.SessionResult {
	t.Helper()
	p.Kind, p.Seed = core.RunSession, 42
	runner, err := core.NewRunner(core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Sessions[0]
}

func runSession(t *testing.T, id string, shards, epochs int, kind core.SessionKind) core.SessionResult {
	t.Helper()
	return sessionOf(t, core.Plan{Benchmarks: []string{id}, Session: kind, Epochs: epochs, Shards: shards})
}

func sameResult(t *testing.T, id string, shards int, got, want core.SessionResult) {
	t.Helper()
	if got.Epochs != want.Epochs || got.ReachedGoal != want.ReachedGoal {
		t.Fatalf("%s shards=%d: epochs/goal (%d,%v) differ from 1-shard (%d,%v)",
			id, shards, got.Epochs, got.ReachedGoal, want.Epochs, want.ReachedGoal)
	}
	if math.Float64bits(got.FinalQuality) != math.Float64bits(want.FinalQuality) {
		t.Fatalf("%s shards=%d: quality %v differs bitwise from 1-shard %v",
			id, shards, got.FinalQuality, want.FinalQuality)
	}
	if len(got.Losses) != len(want.Losses) {
		t.Fatalf("%s shards=%d: %d epochs of losses, 1-shard has %d",
			id, shards, len(got.Losses), len(want.Losses))
	}
	for e := range got.Losses {
		if math.Float64bits(got.Losses[e]) != math.Float64bits(want.Losses[e]) {
			t.Fatalf("%s shards=%d epoch %d: loss %v differs bitwise from 1-shard %v",
				id, shards, e+1, got.Losses[e], want.Losses[e])
		}
	}
}

// TestShardedLossesBitwiseIdentical is the engine's core guarantee:
// the shard count is a pure scheduling knob. Per-epoch losses (and
// qualities) with Shards in {2,4,7} must be bitwise identical to
// Shards=1 for every sharded benchmark. Each benchmark is a parallel
// subtest: its sessions build their own registry, instances and
// arenas, and share nothing but the kernel pool.
func TestShardedLossesBitwiseIdentical(t *testing.T) {
	for _, id := range shardedIDs {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			base := runSession(t, id, 1, 3, core.QuasiEntireSession)
			if base.Shards != 1 {
				t.Fatalf("%s: expected dist path at Shards=1, got Shards=%d", id, base.Shards)
			}
			for _, n := range []int{2, 4, 7} {
				got := runSession(t, id, n, 3, core.QuasiEntireSession)
				if got.Shards != n {
					t.Fatalf("%s: expected dist path at Shards=%d, got Shards=%d", id, n, got.Shards)
				}
				sameResult(t, id, n, got, base)
			}
		})
	}
}

// TestShardDeterminismAcrossKernels re-runs the bitwise shard sweep
// under every registered compute kernel for one benchmark per sharded
// step shape (CNN single-phase, WGAN critic/generator phases, speech
// TBPTT segments, ENAS weights/controller). The kernel must never leak
// into the numbers: shard counts stay bitwise identical within a
// kernel, and — because every kernel accumulates each output element
// in the same ascending-k order — the losses must match bitwise across
// kernels too.
func TestShardDeterminismAcrossKernels(t *testing.T) {
	runSession := func(t *testing.T, id, kernel string, shards int) core.SessionResult {
		t.Helper()
		return sessionOf(t, core.Plan{
			Benchmarks: []string{id}, Session: core.QuasiEntireSession, Epochs: 2, Shards: shards, Kernel: kernel,
		})
	}
	for _, id := range []string{"DC-AI-C1", "DC-AI-C2", "DC-AI-C6", "DC-AI-C17"} {
		var acrossKernels []core.SessionResult
		for _, kname := range tensor.KernelNames() {
			base := runSession(t, id, kname, 1)
			if base.Kernel != kname {
				t.Fatalf("%s: SessionResult.Kernel = %q, want %q", id, base.Kernel, kname)
			}
			for _, n := range []int{2, 4, 7} {
				got := runSession(t, id, kname, n)
				sameResult(t, id+"/"+kname, n, got, base)
			}
			acrossKernels = append(acrossKernels, base)
		}
		for i := 1; i < len(acrossKernels); i++ {
			sameResult(t, id+"/cross-kernel", 1, acrossKernels[i], acrossKernels[0])
		}
	}
}

// TestShardedEntireSessionIdentical checks determinism extends to
// entire sessions, whose epoch count depends on the quality trajectory:
// early stopping must trigger at the same epoch for every shard count.
func TestShardedEntireSessionIdentical(t *testing.T) {
	base := runSession(t, "DC-AI-C1", 1, 6, core.EntireSession)
	for _, n := range []int{2, 7} {
		sameResult(t, "DC-AI-C1", n, runSession(t, "DC-AI-C1", n, 6, core.EntireSession), base)
	}
}

// TestAllReduceUnderContention trains with more replica workers than
// GOMAXPROCS so the compute/reduce/apply phases interleave under real
// scheduling pressure; under `go test -race` this is the all-reduce
// race check.
func TestAllReduceUnderContention(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	eng, err := dist.New(context.Background(), "DC-AI-C1", findFactory(t, "DC-AI-C1"), 3, dist.NewLocal(6))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		if _, err := eng.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	q, err := eng.Quality()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(q) {
		t.Fatal("quality is NaN after contended training")
	}
}

func findFactory(tb testing.TB, id string) models.Factory {
	tb.Helper()
	for _, e := range models.AllEntries() {
		if e.ID == id {
			return e.Factory
		}
	}
	tb.Fatalf("no factory for %s", id)
	return nil
}

// BenchmarkShardedSession measures one data-parallel epoch at 1, 2,
// and 4 shard workers for one benchmark per step shape: the flagship
// CNN (single-phase), the WGAN (four phases per step), and ENAS
// (five, with a single-grain controller phase). Training is bitwise
// identical at every width, so on a multi-core runner the higher
// widths show pure wall-clock speedup; CI's bench-track job converts
// this benchmark's output into the per-push BENCH_<sha>.json
// trajectory artifact.
func BenchmarkShardedSession(b *testing.B) {
	for _, id := range []string{"DC-AI-C1", "DC-AI-C2", "DC-AI-C17"} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/shards=%d", id, shards), func(b *testing.B) {
				eng, err := dist.New(context.Background(), id, findFactory(b, id), 11, dist.NewLocal(shards))
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.TrainEpoch(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
