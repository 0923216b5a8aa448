package results

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aibench/internal/core"
	"aibench/internal/telemetry"
)

// TestTraceEnvelopesDoNotPerturbOldReports pins the forward-compat
// contract of the telemetry envelope kinds: a v1 stream that interleaves
// session records with trace/runmetrics records (and outright future
// records) must replay the old reports byte-identical to a stream
// holding the sessions alone — readers that predate telemetry see the
// same bytes, readers that know it get the planes via Traces() and
// RunMetrics().
func TestTraceEnvelopesDoNotPerturbOldReports(t *testing.T) {
	sessions := []core.Record{
		{Kind: core.KindSession, Session: &core.SessionResult{
			ID: "DC-AI-C1", Name: "Image Classification", Kind: core.QuasiEntireSession,
			Epochs: 2, Shards: 2, Kernel: "blocked", ReachedGoal: true,
			FinalQuality: 0.75, Target: 0.749, Losses: []float64{1.25, 0.5},
		}},
		{Kind: core.KindSession, Session: &core.SessionResult{
			ID: "DC-AI-C15", Name: "Spatial transformer", Kind: core.QuasiEntireSession,
			Epochs: 2, Shards: 1, Kernel: "blocked",
			FinalQuality: 0.25, Target: 0.9, Losses: []float64{2, 1.5},
		}},
	}
	trace := &telemetry.Trace{
		Kind: "session",
		Spans: []telemetry.SpanRecord{
			{ID: 0, Parent: -1, Name: "run"},
			{ID: 1, Parent: 0, Name: "DC-AI-C1"},
			{ID: 2, Parent: 1, Name: "epoch"},
			{ID: 3, Parent: 1, Name: "epoch", Seq: 1},
		},
		Counters: telemetry.CounterSet{Epochs: 2, Grains: 16, SinkRecords: 2,
			Kernel: []telemetry.OpCount{{Op: "matmul", Calls: 4, FLOPs: 1024}}},
	}
	metrics := &telemetry.RunMetrics{
		Kind: "session", WallNS: 5e6, GOMAXPROCS: 2,
		Spans: []telemetry.SpanTiming{
			{ID: 0, DurNS: 5e6}, {ID: 1, StartNS: 1e3, DurNS: 4e6},
			{ID: 2, StartNS: 2e3, DurNS: 2e6}, {ID: 3, StartNS: 3e6, DurNS: 1e6},
		},
	}

	write := func(recs []core.Record, futureLines bool) string {
		var buf bytes.Buffer
		w := NewWriter(&buf, sampleMeta())
		for i, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatalf("write %s: %v", r.Kind, err)
			}
			if futureLines && i == 0 {
				// Splice in records no current reader knows, mid-stream.
				buf.WriteString(`{"v":1,"kind":"flamegraph","run":{},"data":{"depth":3}}` + "\n")
				buf.WriteString(`{"v":2,"kind":"trace","run":{},"data":{"redesigned":true}}` + "\n")
			}
		}
		return buf.String()
	}

	plain := write(sessions, false)
	mixed := write([]core.Record{
		sessions[0],
		{Kind: core.KindTrace, Trace: trace},
		sessions[1],
		{Kind: core.KindRunMetrics, RunMetrics: metrics},
	}, true)

	render := func(raw string) (string, *Stream) {
		s, err := Read(strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if !core.RenderRunRecords("sessions", &buf, s.Records) {
			t.Fatal("sessions report unknown")
		}
		return buf.String(), s
	}

	wantReport, plainStream := render(plain)
	gotReport, mixedStream := render(mixed)
	if wantReport != gotReport {
		t.Fatalf("sessions report changed when trace records were interleaved:\nwant:\n%s\ngot:\n%s", wantReport, gotReport)
	}
	if plainStream.Skipped != 0 {
		t.Fatalf("plain stream skipped %d records", plainStream.Skipped)
	}
	if mixedStream.Skipped != 2 { // the spliced flamegraph + v2 trace lines
		t.Fatalf("mixed stream skipped %d records, want 2", mixedStream.Skipped)
	}
	if len(mixedStream.Sessions()) != 2 {
		t.Fatalf("mixed stream decoded %d sessions, want 2", len(mixedStream.Sessions()))
	}

	// The telemetry planes themselves round-trip intact.
	var traces []*telemetry.Trace
	var rms []*telemetry.RunMetrics
	for _, r := range mixedStream.Records {
		if r.Trace != nil {
			traces = append(traces, r.Trace)
		}
		if r.RunMetrics != nil {
			rms = append(rms, r.RunMetrics)
		}
	}
	if len(traces) != 1 || len(rms) != 1 {
		t.Fatalf("decoded %d traces, %d runmetrics; want 1 each", len(traces), len(rms))
	}
	got, _ := json.Marshal(traces[0])
	want, _ := json.Marshal(trace)
	if !bytes.Equal(got, want) {
		t.Fatalf("trace changed across the envelope round trip:\nwrote %s\nread  %s", want, got)
	}
	if rms[0].WallNS != metrics.WallNS || len(rms[0].Spans) != len(metrics.Spans) {
		t.Fatalf("runmetrics changed across the round trip: %+v", rms[0])
	}
}
