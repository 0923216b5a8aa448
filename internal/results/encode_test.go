package results

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"runtime/debug"
	"testing"

	"aibench/internal/core"
	"aibench/internal/gpusim"
	"aibench/internal/telemetry"
)

// awkward holds every character the JSON encoder rewrites: the
// HTML-sensitive <, > and &, the line separator U+2028, and non-ASCII
// text it passes through.
const awkward = "<b>&amp; \u2028 naïve ∑ 日本"

// oracleLine is the encoding the Writer replaced: the payload marshalled
// on its own, then json.Encoder encoding an Envelope around it, which
// rescanned and compacted the RawMessage.
func oracleLine(t *testing.T, kind string, meta core.RunMeta, payload any) []byte {
	t.Helper()
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Envelope{V: Version, Kind: kind, Run: meta, Data: data}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// awkwardRecords is one record of each of the six kinds, every string
// field that can carry text carrying the awkward characters.
func awkwardRecords() []core.Record {
	return []core.Record{
		{Kind: core.KindSession, Session: &core.SessionResult{
			ID: "DC-AI-C1", Name: awkward, Kind: core.QuasiEntireSession,
			Epochs: 2, Shards: 2, Kernel: "blocked", FinalQuality: 0.1 + 0.2,
			Target: 1e-21, Losses: []float64{1.25, 0.5, 3e21}, Error: awkward,
		}},
		{Kind: core.KindCharacterization, Characterization: &core.Characterization{
			ID: "DC-AI-C16", Suite: "AIBench", Task: awkward,
			MFLOPs: 1.5, MParams: 0.25, Epochs: 23,
			Metrics: gpusim.Metrics{AchievedOccupancy: 0.5, IPCEfficiency: 1.0 / 3},
			Shares:  map[gpusim.Category]float64{gpusim.GEMM: 0.7, gpusim.ReluCat: 0.3},
			Hotspots: []gpusim.Hotspot{
				{Name: awkward, Category: gpusim.GEMM, Share: 0.6, Calls: 12},
				{Name: "relu", Category: gpusim.ReluCat, Share: 0.4, Calls: 3},
			},
			Stalls: map[gpusim.Category]gpusim.StallBreakdown{
				gpusim.GEMM: {ExecDepend: 0.5, MemDepend: 0.5},
			},
		}},
		{Kind: core.KindScaling, Scaling: &core.ScalingRow{
			ID: "DC-AI-C15", Name: awkward,
			Points: []core.ScalingPoint{{Shards: 1, SecPerEpoch: 0.5, Speedup: 1}, {Shards: 2, SecPerEpoch: 0.3, Speedup: 5.0 / 3}},
		}},
		{Kind: core.KindReplay, Replay: &core.ReplaySession{
			ID: awkward, Epochs: 6, Hours: 2.7128394027,
		}},
		{Kind: core.KindTrace, Trace: &telemetry.Trace{
			Kind: "session",
			Spans: []telemetry.SpanRecord{
				{ID: 0, Parent: -1, Name: "run"},
				{ID: 1, Parent: 0, Name: awkward, Seq: 1},
			},
			Counters: telemetry.CounterSet{Epochs: 2, Kernel: []telemetry.OpCount{{Op: "matmul", Calls: 4, FLOPs: 1024}}},
		}},
		{Kind: core.KindRunMetrics, RunMetrics: &telemetry.RunMetrics{
			Kind: awkward, WallNS: 5e6, GOMAXPROCS: 2,
			Spans: []telemetry.SpanTiming{{ID: 0, DurNS: 5e6}, {ID: 1, StartNS: 1e3, DurNS: 4e6}},
		}},
	}
}

// TestWriterMatchesTheDoubleEncoding pins the Writer's bytes to the
// encoding it replaced, for all six record kinds, with and without a
// backend in the run identity (backend is omitempty, so the envelope's
// run changes shape without it). A stream of several records shares
// one Writer, so a reused buffer that kept a byte of an earlier line
// shows up too.
func TestWriterMatchesTheDoubleEncoding(t *testing.T) {
	recs := awkwardRecords()
	kinds := map[core.RecordKind]bool{}
	for _, r := range recs {
		kinds[r.Kind] = true
	}
	if len(kinds) != 6 {
		t.Fatalf("the oracle covers %d record kinds, want all 6", len(kinds))
	}
	withBackend := sampleMeta()
	withBackend.Backend = "process"
	withBackend.Kernel = awkward
	for _, meta := range []core.RunMeta{sampleMeta(), withBackend} {
		var got, want bytes.Buffer
		w := NewWriter(&got, meta)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
			want.Write(oracleLine(t, string(r.Kind), meta, r.Payload()))
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("backend %q: the Writer's stream differs from the double encoding:\n got %s\nwant %s", meta.Backend, got.Bytes(), want.Bytes())
		}
	}
}

// TestErrorLineMatchesTheDoubleMarshal pins WriteLine's terminal error
// line — the one a server appends when a run fails — to the bytes the
// server wrote when it marshalled a map and then an Envelope around it.
func TestErrorLineMatchesTheDoubleMarshal(t *testing.T) {
	for _, meta := range []core.RunMeta{sampleMeta(), {SuiteSHA: "s", Backend: "local"}} {
		msg := "run panicked: " + awkward
		data, err := json.Marshal(map[string]string{"error": msg})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(Envelope{V: Version, Kind: "error", Run: meta, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		var got bytes.Buffer
		line := struct {
			Error string `json:"error"`
		}{msg}
		if err := WriteLine(&got, "error", meta, line); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("error line:\n got %s\nwant %s", got.Bytes(), want)
		}
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("gone") }

// TestWriterFailuresCountNothing: a payload that does not encode and an
// output that refuses the line are both the Write's error, neither is
// counted, and the next good record is written whole.
func TestWriterFailuresCountNothing(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, sampleMeta())
	bad := core.Record{Kind: core.KindSession, Session: &core.SessionResult{ID: "x", Losses: []float64{1, math.NaN()}}}
	if err := w.Write(bad); err == nil {
		t.Fatal("a NaN loss encoded")
	}
	if w.Count() != 0 || buf.Len() != 0 {
		t.Fatalf("a failed encode counted %d records and wrote %q", w.Count(), buf.Bytes())
	}
	good := awkwardRecords()[0]
	if err := w.Write(good); err != nil {
		t.Fatal(err)
	}
	if want := oracleLine(t, string(good.Kind), sampleMeta(), good.Payload()); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("the record after a failed one:\n got %s\nwant %s", buf.Bytes(), want)
	}
	if err := NewWriter(failingWriter{}, sampleMeta()).Write(good); err == nil {
		t.Fatal("a refused line was not the Write's error")
	}
}

// TestWriterAllocs pins that a warmed Write encodes the payload once:
// it makes no more heap objects than json.Marshal of the payload alone,
// which the Writer used to do before encoding the envelope around a
// copy of it. The collector is off while it counts: a collection
// empties the encoder's pool, and a refill would be counted against
// whichever side it landed in. Each side reads the smallest of ten
// windows: under -race a sync.Pool drops a random share of what is put
// back, and the race runtime allocates objects of its own, so one
// window of either side may count a refill the other did not.
func TestWriterAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := func(f func()) float64 {
		n := math.Inf(1)
		for range 10 {
			n = min(n, testing.AllocsPerRun(100, f))
		}
		return n
	}
	for _, r := range awkwardRecords()[:2] { // a session and a characterization
		payload := r.Payload()
		w := NewWriter(io.Discard, sampleMeta())
		write := least(func() {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		})
		marshal := least(func() {
			if _, err := json.Marshal(payload); err != nil {
				t.Fatal(err)
			}
		})
		if write > marshal {
			t.Fatalf("%s: a warmed Write makes %v objects, json.Marshal of its payload %v", r.Kind, write, marshal)
		}
		t.Logf("%s: Write %v objects, json.Marshal %v", r.Kind, write, marshal)
	}
}
