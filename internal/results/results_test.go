package results

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"aibench/internal/core"
	"aibench/internal/gpusim"
	"aibench/internal/tune"
)

func sampleMeta() core.RunMeta {
	return core.RunMeta{
		SuiteSHA: "abc123", Seed: 42, Kernel: "blocked", Shards: 2,
		Started: "2026-07-27T00:00:00Z",
	}
}

func sampleRecords() []core.Record {
	return []core.Record{
		{Kind: core.KindSession, Session: &core.SessionResult{
			ID: "DC-AI-C1", Name: "Image Classification", Kind: core.QuasiEntireSession,
			Epochs: 2, Shards: 2, Kernel: "blocked", ReachedGoal: true,
			FinalQuality: 0.75, Target: 0.749, Losses: []float64{1.25, 0.5},
		}},
		{Kind: core.KindCharacterization, Characterization: &core.Characterization{
			ID: "DC-AI-C16", Suite: "AIBench", Task: "Learning to rank",
			MFLOPs: 1.5, MParams: 0.25, Epochs: 23,
			Metrics: gpusim.Metrics{AchievedOccupancy: 0.5, IPCEfficiency: 0.4},
			Shares:  map[gpusim.Category]float64{gpusim.GEMM: 0.7, gpusim.ReluCat: 0.3},
			Hotspots: []gpusim.Hotspot{
				{Name: "sgemm", Category: gpusim.GEMM, Share: 0.6, Calls: 12},
			},
			Stalls: map[gpusim.Category]gpusim.StallBreakdown{
				gpusim.GEMM: {ExecDepend: 0.5, MemDepend: 0.5},
			},
		}},
		{Kind: core.KindScaling, Scaling: &core.ScalingRow{
			ID: "DC-AI-C15", Name: "Spatial transformer",
			Points: []core.ScalingPoint{{Shards: 1, SecPerEpoch: 0.5, Speedup: 1}},
		}},
		{Kind: core.KindReplay, Replay: &core.ReplaySession{
			ID: "DC-AI-C9", Epochs: 6, Hours: 2.7128394027,
		}},
		{Kind: core.KindTuneConfig, TuneConfig: &tune.Config{
			Kernel: "tuned", GOARCH: "amd64", GOMAXPROCS: 8, Threshold: 1 << 17,
			Entries: []tune.Entry{
				{Op: tune.OpGEMM, ShapeClass: "square", BlockM: 128, BlockN: 128, GFLOPS: 6.25},
				{Op: "conv2d", ShapeClass: "conv", BlockM: 64, BlockN: 64, GFLOPS: 3.5},
			},
		}},
	}
}

// TestEnvelopeRoundTrip pins the core persistence contract: every
// record kind survives write → read with its payload intact and its
// run identity recorded once.
func TestEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	meta := sampleMeta()
	w := NewWriter(&buf, meta)
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("write %s: %v", r.Kind, err)
		}
	}
	if w.Count() != len(recs) {
		t.Fatalf("wrote %d records, Count says %d", len(recs), w.Count())
	}

	s, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Skipped != 0 {
		t.Fatalf("round trip skipped %d records", s.Skipped)
	}
	if len(s.Runs) != 1 || s.Runs[0] != meta {
		t.Fatalf("runs = %+v, want exactly the writer's meta", s.Runs)
	}
	if len(s.Records) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(s.Records), len(recs))
	}
	for i := range recs {
		if s.Records[i].Kind != recs[i].Kind {
			t.Fatalf("record %d kind %q, want %q", i, s.Records[i].Kind, recs[i].Kind)
		}
		if !reflect.DeepEqual(s.Records[i].Payload(), recs[i].Payload()) {
			t.Errorf("record %d payload differs:\nread  %+v\nwrote %+v",
				i, s.Records[i].Payload(), recs[i].Payload())
		}
	}
	if got := len(s.Sessions()) + len(s.Characterizations()) + len(s.Scaling()) + len(s.Replays()) + len(s.TuneConfigs()); got != len(recs) {
		t.Fatalf("typed accessors returned %d records in total, want %d", got, len(recs))
	}

	// The tuning report rebuilt from the decoded stream must be
	// byte-identical to one rendered from the in-memory records.
	var live, rebuilt bytes.Buffer
	core.RenderTuneConfigs(&live, recs)
	core.RenderTuneConfigs(&rebuilt, s.Records)
	if live.String() == "" || live.String() != rebuilt.String() {
		t.Errorf("rebuilt tuning report differs from live output:\n--- live ---\n%s--- rebuilt ---\n%s",
			live.String(), rebuilt.String())
	}
}

// TestEnvelopeShape pins the on-disk schema of the issue spec:
// {"v":1,"kind":...,"run":{suite_sha,seed,kernel,shards,started},"data":{...}}.
func TestEnvelopeShape(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, sampleMeta())
	if err := w.Write(core.Record{Kind: core.KindReplay, Replay: &core.ReplaySession{ID: "DC-AI-C9", Epochs: 6, Hours: 2.5}}); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"v", "kind", "run", "data"} {
		if _, ok := line[key]; !ok {
			t.Errorf("envelope missing %q: %s", key, buf.String())
		}
	}
	var run map[string]json.RawMessage
	if err := json.Unmarshal(line["run"], &run); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"suite_sha", "seed", "kernel", "shards", "started"} {
		if _, ok := run[key]; !ok {
			t.Errorf("run meta missing %q: %s", key, line["run"])
		}
	}
}

// TestUnknownVersionAndKindSkipped pins forward compatibility: records
// written by a future suite revision are counted and skipped, never a
// crash or an error.
func TestUnknownVersionAndKindSkipped(t *testing.T) {
	input := strings.Join([]string{
		`{"v":99,"kind":"session","run":{},"data":{"id":"DC-AI-C1","losses":null}}`,
		`{"v":1,"kind":"hologram","run":{},"data":{"whatever":true}}`,
		`{"v":1,"kind":"replay","run":{},"data":{"id":"DC-AI-C1","epochs":3,"hours":1.5}}`,
	}, "\n")
	s, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if s.Skipped != 2 {
		t.Fatalf("skipped %d records, want 2", s.Skipped)
	}
	if len(s.Records) != 1 || s.Records[0].Kind != core.KindReplay {
		t.Fatalf("records = %+v, want the one known replay", s.Records)
	}
}

// TestLegacyBareSessionLines keeps PR 2's pre-envelope `run-all -out`
// streams readable: bare SessionResult lines decode as session records.
func TestLegacyBareSessionLines(t *testing.T) {
	line := `{"id":"DC-AI-C1","name":"Image Classification","kind":1,"epochs":2,"shards":0,"kernel":"blocked","reached_goal":true,"final_quality":0.5,"target":0.4,"losses":[1,0.5]}`
	s, err := Read(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Records) != 1 || s.Records[0].Kind != core.KindSession {
		t.Fatalf("records = %+v, want one session", s.Records)
	}
	if got := s.Sessions()[0]; got.ID != "DC-AI-C1" || got.Epochs != 2 || !got.ReachedGoal {
		t.Fatalf("legacy session decoded as %+v", got)
	}
}

// TestMalformedLinesError checks garbage is an error naming the line,
// not a silent skip.
func TestMalformedLinesError(t *testing.T) {
	for _, input := range []string{
		"{not json",
		`{"v":0,"kind":"","mystery":true}`,
	} {
		if _, err := Read(strings.NewReader(input)); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("Read(%q) error = %v, want a line-1 error", input, err)
		}
	}
}

// TestWriterRejectsPayloadlessRecords checks a mis-tagged record fails
// loudly at write time.
func TestWriterRejectsPayloadlessRecords(t *testing.T) {
	w := NewWriter(&bytes.Buffer{}, sampleMeta())
	if err := w.Write(core.Record{Kind: core.KindSession}); err == nil {
		t.Fatal("payloadless record accepted")
	}
	if w.Count() != 0 {
		t.Fatal("failed write counted")
	}
}
