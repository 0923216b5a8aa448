package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// telemetryPlan is the seeded plan the determinism tests run twice:
// two sharded benchmarks under a 2-worker pool, so concurrent
// per-benchmark spans and the dist engine's phase spans are all in
// play.
func telemetryPlan() Plan {
	return Plan{
		Kind:       RunSession,
		Benchmarks: []string{"DC-AI-C15", "DC-AI-C16"},
		Session:    QuasiEntireSession,
		Seed:       7,
		Epochs:     2,
		Shards:     2,
		Workers:    2,
		Telemetry:  true,
	}
}

func runTelemetryPlan(t *testing.T, reg *Registry, p Plan) (*RunResult, []Record) {
	t.Helper()
	r, err := NewRunner(reg, p)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	res, err := r.Run(context.Background(), func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, recs
}

// TestTelemetryDeterministicPlane is the tentpole contract: two seeded
// runs of the same Plan marshal byte-identical deterministic planes —
// span tree, ids, seqs, values, and every counter — regardless of
// goroutine scheduling.
func TestTelemetryDeterministicPlane(t *testing.T) {
	reg := NewRegistry()
	res1, recs1 := runTelemetryPlan(t, reg, telemetryPlan())
	res2, _ := runTelemetryPlan(t, reg, telemetryPlan())

	if res1.Trace == nil || res1.Metrics == nil {
		t.Fatal("telemetry run attached no trace/metrics")
	}
	b1, err := json.Marshal(res1.Trace)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(res2.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("deterministic planes differ between seeded runs:\n%s\n%s", b1, b2)
	}

	c := res1.Trace.Counters
	if c.Epochs != 4 { // 2 benchmarks x 2 epochs
		t.Fatalf("epochs counter = %d, want 4", c.Epochs)
	}
	if c.Grains == 0 || c.ReduceRounds == 0 || c.ReduceFloats == 0 {
		t.Fatalf("dist counters empty: %+v", c)
	}
	if len(c.Kernel) == 0 {
		t.Fatalf("no kernel ops counted: %+v", c)
	}
	for _, k := range c.Kernel {
		if k.Calls <= 0 || k.FLOPs <= 0 {
			t.Fatalf("kernel op %+v has non-positive counts", k)
		}
	}
	if c.SinkRecords != 2 { // the two session records; the trace itself is uncounted
		t.Fatalf("sink_records = %d, want 2", c.SinkRecords)
	}
	if len(res1.Metrics.Spans) != len(res1.Trace.Spans) {
		t.Fatalf("wall-clock plane has %d timings for %d spans",
			len(res1.Metrics.Spans), len(res1.Trace.Spans))
	}

	// The sink saw the result records plus one trace and one runmetrics
	// record, in that order at the tail.
	if n := len(recs1); n != 4 {
		t.Fatalf("sink received %d records, want 4 (2 sessions + trace + runmetrics)", n)
	}
	if recs1[2].Kind != KindTrace || recs1[3].Kind != KindRunMetrics {
		t.Fatalf("trailing records = %s, %s; want trace, runmetrics", recs1[2].Kind, recs1[3].Kind)
	}
	if recs1[2].Trace != res1.Trace || recs1[3].RunMetrics != res1.Metrics {
		t.Fatal("sinked trace/runmetrics are not the result's")
	}

	// Spot-check the tree shape: root, two benchmark children in id
	// order, epochs under each.
	spans := res1.Trace.Spans
	if spans[0].Name != "run" || spans[0].Parent != -1 {
		t.Fatalf("root span = %+v", spans[0])
	}
	var benchNames []string
	for _, s := range spans {
		if s.Parent == 0 {
			benchNames = append(benchNames, s.Name)
		}
	}
	if len(benchNames) != 2 || benchNames[0] != "DC-AI-C15" || benchNames[1] != "DC-AI-C16" {
		t.Fatalf("benchmark spans = %v", benchNames)
	}
}

// TestTelemetryOffEmitsNoExtraRecords pins the disabled default: no
// trace/runmetrics records, no attached planes.
func TestTelemetryOffEmitsNoExtraRecords(t *testing.T) {
	reg := NewRegistry()
	p := telemetryPlan()
	p.Telemetry = false
	res, recs := runTelemetryPlan(t, reg, p)
	if res.Trace != nil || res.Metrics != nil {
		t.Fatal("telemetry-off run attached trace/metrics")
	}
	for _, r := range recs {
		if r.Kind == KindTrace || r.Kind == KindRunMetrics {
			t.Fatalf("telemetry-off run emitted a %s record", r.Kind)
		}
	}
}

// TestConcurrentTracedRunsStayExact is what "a run's counters are a
// value" buys: four traced plans — a serial session, a sharded one on
// each backend, a replay — and an untraced session run in one process
// at once, every one of them inside Run at the same instant (each
// holds its first record in its sink until all five have one), and
// each traced run's deterministic plane is byte-equal to the one the
// same plan produces alone: no Start zeroes a neighbour, no Stop blinds
// one, no call of one run — or of the untraced run, which attaches no
// trace — lands in another's counts.
func TestConcurrentTracedRunsStayExact(t *testing.T) {
	reg := NewRegistry()
	session := func(id string, shards int, backend string, traced bool) Plan {
		return Plan{Kind: RunSession, Benchmarks: []string{id}, Session: QuasiEntireSession,
			Epochs: 3, Seed: 11, Shards: shards, Backend: backend, Telemetry: traced}
	}
	plans := []Plan{
		session("DC-AI-C1", 0, "", true),
		session("DC-AI-C16", 2, "local", true),
		session("DC-AI-C16", 2, "process", true),
		{Kind: RunReplay, Benchmarks: []string{"DC-AI-C1", "DC-AI-C16"}, Seed: 11, Telemetry: true},
		session("DC-AI-C16", 0, "", false),
	}
	plane := func(res *RunResult) []byte {
		if res.Trace == nil {
			return nil
		}
		b, err := json.Marshal(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	solo := make([][]byte, len(plans))
	for i, p := range plans {
		res, _ := runTelemetryPlan(t, reg, p)
		solo[i] = plane(res)
	}

	together := make([]*RunResult, len(plans))
	errs := make([]error, len(plans))
	var inside, done sync.WaitGroup
	inside.Add(len(plans))
	for i, p := range plans {
		r, err := NewRunner(reg, p)
		if err != nil {
			t.Fatal(err)
		}
		done.Add(1)
		go func() {
			defer done.Done()
			var once sync.Once
			together[i], errs[i] = r.Run(context.Background(), func(Record) error {
				once.Do(func() {
					inside.Done()
					inside.Wait()
				})
				return nil
			})
		}()
	}
	done.Wait()
	for i := range plans {
		if errs[i] != nil {
			t.Fatalf("plan %d: %v", i, errs[i])
		}
		if got := plane(together[i]); !bytes.Equal(got, solo[i]) {
			t.Errorf("plan %d: deterministic plane among concurrent runs differs from the solo run's:\n%s\n%s", i, got, solo[i])
		}
	}
	if together[4].Trace != nil || together[4].Metrics != nil {
		t.Error("the untraced run attached a trace")
	}
}

// TestTelemetryScalingAndReplaySpans exercises the other run kinds'
// span shapes end to end (scaling: per-shard-count point spans whose
// value is the epochs timed; replay: one span per benchmark).
func TestTelemetryScalingAndReplaySpans(t *testing.T) {
	reg := NewRegistry()
	res, _ := runTelemetryPlan(t, reg, Plan{
		Kind: RunScaling, Benchmarks: []string{"DC-AI-C15"},
		ShardSweep: []int{1, 2}, Epochs: 1, Seed: 3, Telemetry: true,
	})
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	var points, epochs int64
	for _, s := range res.Trace.Spans {
		if s.Name == "shards=1" || s.Name == "shards=2" {
			points++
			epochs += s.Value
		}
	}
	if points != 2 || epochs != 2 {
		t.Fatalf("scaling points=%d epochs=%d, want 2 and 2", points, epochs)
	}
	if res.Trace.Counters.Epochs != 2 {
		t.Fatalf("epochs counter = %d, want 2", res.Trace.Counters.Epochs)
	}

	res, _ = runTelemetryPlan(t, reg, Plan{
		Kind: RunReplay, Benchmarks: []string{"DC-AI-C1", "DC-AI-C2"}, Seed: 3, Telemetry: true,
	})
	var names []string
	for _, s := range res.Trace.Spans {
		if s.Parent == 0 {
			names = append(names, s.Name)
		}
	}
	if len(names) != 2 || names[0] != "DC-AI-C1" || names[1] != "DC-AI-C2" {
		t.Fatalf("replay spans = %v", names)
	}
}
