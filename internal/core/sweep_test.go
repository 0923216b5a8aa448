package core_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"aibench/internal/core"
	"aibench/internal/dist"
	"aibench/internal/models"
	"aibench/internal/results"
)

// hookBackend is the local backend with a test's hook on Open: the
// failure (or the cancellation) a sweep has to absorb when a backend
// cannot bring a benchmark's replicas up.
type hookBackend struct{ workers int }

// openHook is consulted by every hookBackend.Open; the tests that set
// it run sequentially and clear it when done.
var openHook func(benchID string, workers int) error

func (h hookBackend) Name() string { return "hook-test" }
func (h hookBackend) Workers() int { return h.workers }

func (h hookBackend) Open(ctx context.Context, benchID string, factory models.Factory, seed int64) (dist.Group, error) {
	if err := openHook(benchID, h.workers); err != nil {
		return nil, err
	}
	return dist.NewLocal(h.workers).Open(ctx, benchID, factory, seed)
}

func init() {
	dist.Register("hook-test", func(workers int) dist.Backend { return hookBackend{workers: workers} })
}

// sweep runs a two-point scaling plan over three benchmarks on the
// hooked backend, persisting rows the way `aibench scaling -out` does.
func sweep(t *testing.T, ctx context.Context, hook func(string, int) error) (*core.RunResult, *results.Stream, error) {
	t.Helper()
	openHook = hook
	defer func() { openHook = nil }()
	runner, err := core.NewRunner(core.NewRegistry(), core.Plan{
		Kind: core.RunScaling, Benchmarks: []string{"DC-AI-C15", "DC-AI-C16", "DC-AI-C10"},
		ShardSweep: []int{1, 2}, Epochs: 1, Seed: 5, Backend: "hook-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, runErr := runner.Run(ctx, results.NewWriter(&out, runner.Meta()).Write)
	stream, err := results.Read(&out)
	if err != nil {
		t.Fatalf("the persisted sweep does not read back: %v", err)
	}
	return res, stream, runErr
}

func rowIDs(rows []core.ScalingRow) []string {
	ids := []string{}
	for _, r := range rows {
		ids = append(ids, r.ID)
	}
	return ids
}

// persistedIDs are the scaling rows that reached the stream, in order.
func persistedIDs(s *results.Stream) []string {
	ids := []string{}
	for _, rec := range s.Records {
		ids = append(ids, rec.Scaling.ID)
	}
	return ids
}

// TestSweepFailsWhenEngineCannotOpen: a backend that cannot bring one
// benchmark's replicas up is the sweep's error, at the baseline or at
// a wider shard count. The rows measured before it are kept and
// persisted, the failing benchmark has no half-measured row, and
// nothing further launches. (An open failure used to drop the row
// silently, so a process backend whose children could not start gave
// an empty sweep and exit status 0.)
func TestSweepFailsWhenEngineCannotOpen(t *testing.T) {
	injected := errors.New("no capacity for replicas (injected)")
	for name, fails := range map[string]func(id string, workers int) bool{
		"baseline": func(id string, _ int) bool { return id == "DC-AI-C16" },
		"widened":  func(id string, workers int) bool { return id == "DC-AI-C16" && workers == 2 },
	} {
		res, stream, err := sweep(t, context.Background(), func(id string, workers int) error {
			if fails(id, workers) {
				return injected
			}
			return nil
		})
		if !errors.Is(err, injected) {
			t.Fatalf("%s open failure: sweep error %v, want the backend's", name, err)
		}
		want := []string{"DC-AI-C15"}
		if got := rowIDs(res.Scaling); !slices.Equal(got, want) {
			t.Fatalf("%s open failure: sweep kept rows %v, want %v", name, got, want)
		}
		if got := persistedIDs(stream); !slices.Equal(got, want) {
			t.Fatalf("%s open failure: sweep persisted rows %v, want %v", name, got, want)
		}
		for _, row := range res.Scaling {
			for _, pt := range row.Points {
				if !(pt.SecPerEpoch > 0) || !(pt.Speedup > 0) {
					t.Fatalf("%s: unmeasured point %+v in row %s", name, pt, row.ID)
				}
			}
		}
	}
}

// TestSweepDropsHalfMeasuredRow: a sweep cancelled between two of a
// benchmark's shard counts emits no row for it and launches nothing
// further, and is not an error.
func TestSweepDropsHalfMeasuredRow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, stream, err := sweep(t, ctx, func(id string, workers int) error {
		if id == "DC-AI-C16" && workers == 2 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DC-AI-C15"}
	if got := rowIDs(res.Scaling); !slices.Equal(got, want) {
		t.Fatalf("cancelled sweep kept rows %v, want %v", got, want)
	}
	if got := persistedIDs(stream); !slices.Equal(got, want) {
		t.Fatalf("cancelled sweep persisted rows %v, want %v", got, want)
	}
}
