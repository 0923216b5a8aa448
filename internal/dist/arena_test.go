package dist_test

import (
	"fmt"
	"os"
	"testing"

	"aibench/internal/dist"
	"aibench/internal/tensor"
)

// arenaModeEnv carries the arena reset mode into the process backend's
// children (this test binary re-exec'd, see TestMain): the mode is a
// process-wide test hook, and a child is another process.
const arenaModeEnv = "AIBENCH_TEST_ARENA_RESET"

var arenaModes = map[string]tensor.ArenaResetMode{
	"poison": tensor.ResetPoison,
	"never":  tensor.ResetNever,
}

// applyArenaModeFromEnv is the child's half of withArenaMode.
func applyArenaModeFromEnv() {
	if m, ok := arenaModes[os.Getenv(arenaModeEnv)]; ok {
		tensor.SetArenaResetMode(m)
	}
}

// withArenaMode runs fn with every arena of this process, and of the
// children it spawns, in the named reset mode.
func withArenaMode(t *testing.T, mode string, fn func()) {
	t.Helper()
	t.Setenv(arenaModeEnv, mode)
	defer tensor.SetArenaResetMode(tensor.SetArenaResetMode(arenaModes[mode]))
	fn()
}

// arenaFamilies is one sharded benchmark per step shape: single-phase
// CNN with batch-norm buffers, phased WGAN, transformer macro-batches,
// CycleGAN phases sharing one draw, truncated-BPTT speech segments
// carrying GRU state between phases, data-dependent detection, the
// ranking curriculum, ENAS weights/controller phases, RL episodes.
var arenaFamilies = []string{
	"DC-AI-C1", "DC-AI-C2", "DC-AI-C3", "DC-AI-C5", "DC-AI-C6",
	"DC-AI-C9", "DC-AI-C16", "DC-AI-C17", "MLPerf-RL",
}

// TestNoTensorOutlivesItsShardedStep is models'
// TestNoTensorOutlivesItsStep through the replica loop, which resets a
// workload's arena once per optimizer step: with the rewound memory
// poisoned, two epochs and the quality evaluation must match, bit for
// bit, a run in which nothing is ever reused — at 1, 2 and 4 local
// shards (a 4-shard session is four replicas' arenas live on four
// goroutines at once, which is what -race watches), and at 2 shards
// with the replicas in child processes. A phase that reads a tensor an
// earlier phase of the same step built must still find it; a step that
// reads one from the step before must not.
func TestNoTensorOutlivesItsShardedStep(t *testing.T) {
	for _, id := range arenaFamilies {
		var wantLoss []float64
		var wantQ float64
		withArenaMode(t, "never", func() {
			wantLoss, wantQ = trainVia(t, id, dist.NewLocal(1), 2)
		})
		check := func(label string, backend dist.Backend) {
			withArenaMode(t, "poison", func() {
				loss, q := trainVia(t, id, backend, 2)
				sameFloats(t, id+" "+label+" losses, poisoned vs never reused", loss, wantLoss)
				sameFloats(t, id+" "+label+" quality, poisoned vs never reused", []float64{q}, []float64{wantQ})
			})
		}
		for _, shards := range []int{1, 2, 4} {
			check(fmt.Sprintf("local shards=%d", shards), dist.NewLocal(shards))
		}
		check("process shards=2", dist.NewProcess(2))
	}
}
