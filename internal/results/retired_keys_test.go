package results

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aibench/internal/core"
)

// TestOldStreamsStillLoad pins what a stream written while the blocked
// kernel could be tuned reads as now: its one tuneconfig line is skipped
// like any unknown kind, the "tuning" key in its run headers is ignored,
// and the sessions report rebuilds byte-identical to the same stream
// without either. The tuning report is gone, so asking for it is an
// unknown report.
func TestOldStreamsStillLoad(t *testing.T) {
	var plain bytes.Buffer
	w := NewWriter(&plain, sampleMeta())
	for _, sr := range []core.SessionResult{
		{ID: "DC-AI-C1", Name: "Image Classification", Kind: core.QuasiEntireSession,
			Epochs: 2, Kernel: "blocked", FinalQuality: 0.75, Target: 0.749, Losses: []float64{1.25, 0.5}},
		{ID: "DC-AI-C16", Name: "Learning to rank", Kind: core.QuasiEntireSession,
			Epochs: 2, Kernel: "blocked", FinalQuality: 0.5, Target: 0.9, Losses: []float64{2, 1.5}},
	} {
		if err := w.Write(core.Record{Kind: core.KindSession, Session: &sr}); err != nil {
			t.Fatal(err)
		}
	}
	// The older writer put "tuning" last in the run header and a
	// tuneconfig envelope wherever the stream was appended to.
	const header = `"started":"2026-07-27T00:00:00Z"}`
	if n := strings.Count(plain.String(), header); n != 2 {
		t.Fatalf("found the run header end %d times, want 2:\n%s", n, plain.String())
	}
	old := `{"v":1,"kind":"tuneconfig","run":{"suite_sha":"abc123","seed":0,"kernel":"blocked","shards":0,"started":"2026-07-27T00:00:00Z"},"data":{"kernel":"blocked","goarch":"amd64","gomaxprocs":2,"parallel_threshold":524288,"entries":[{"op":"gemm","shape_class":"square","block_m":64,"block_n":64,"gflops":6.4}]}}` + "\n" +
		strings.ReplaceAll(plain.String(), header, `"started":"2026-07-27T00:00:00Z","tuning":"t.jsonl"}`)

	read := func(raw string) *Stream {
		t.Helper()
		s, err := Read(strings.NewReader(raw))
		if err != nil {
			t.Fatalf("stream does not load: %v", err)
		}
		return s
	}
	want, got := read(plain.String()), read(old)
	if got.Skipped != 1 || want.Skipped != 0 {
		t.Fatalf("skipped %d records of the old stream (want the tuneconfig line), %d of the plain one", got.Skipped, want.Skipped)
	}
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Fatalf("old run headers read as %+v, want %+v", got.Runs, want.Runs)
	}
	if a, b := renderReport(t, "sessions", want.Records), renderReport(t, "sessions", got.Records); a != b {
		t.Fatalf("sessions report from the old stream differs:\n--- plain ---\n%s--- old ---\n%s", a, b)
	}
	if core.RenderRunRecords("tuning", &bytes.Buffer{}, got.Records) || slices.Contains(core.RunReportNames(), "tuning") {
		t.Fatal(`"tuning" is still a run report`)
	}
}
