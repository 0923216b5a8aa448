package results

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
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
	line, err := oracle(kind, meta, payload)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// oracle is oracleLine's encoding, with the error of a payload
// encoding/json refuses.
func oracle(kind string, meta core.RunMeta, payload any) ([]byte, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Envelope{V: Version, Kind: kind, Run: meta, Data: data}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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

// TestErrorLineMatchesTheDoubleMarshal pins WriteError's terminal error
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
		if err := WriteError(&got, meta, msg); err != nil {
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

// TestWriterAllocs pins that a warmed Write makes no heap object for
// any of the six record kinds, awkward strings and all: the line is
// built in the writer's own buffer, and a characterization's map keys
// are sorted on the stack. The collector is off while it counts, and
// each record reads the smallest of ten windows, so an object the
// runtime makes for itself (a background mark worker, a timer) in one
// window is not counted against the Writer.
func TestWriterAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, r := range awkwardRecords() {
		w := NewWriter(io.Discard, sampleMeta())
		n := math.Inf(1)
		for range 10 {
			n = min(n, testing.AllocsPerRun(100, func() {
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if n != 0 {
			t.Errorf("%s: a warmed Write makes %v heap objects, want 0", r.Kind, n)
		}
	}
}

// TestEveryPayloadFieldIsEncoded fills every exported field of each
// record kind's payload, nested structs, slices and maps included, with
// a value of its own that is not zero, and compares the Writer's line
// with the double encoding: a field added to a payload type without
// its line in the kind's encoder is missing from the Writer's bytes,
// and two fields swapped put the wrong value under a key.
func TestEveryPayloadFieldIsEncoded(t *testing.T) {
	next := 0
	leaf := func(v reflect.Value) {
		next++
		switch v.Kind() {
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", next))
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(next))
		case reflect.Uint64:
			v.SetUint(uint64(next))
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.25)
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("no filler for a %s field", v.Type())
		}
	}
	for _, r := range awkwardRecords() {
		v := reflect.ValueOf(r.Payload()).Elem()
		v.SetZero()
		fill(v, 2, leaf)
		var got bytes.Buffer
		if err := NewWriter(&got, sampleMeta()).Write(r); err != nil {
			t.Fatal(err)
		}
		if want := oracleLine(t, string(r.Kind), sampleMeta(), r.Payload()); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s, every field set:\n got %s\nwant %s", r.Kind, got.Bytes(), want)
		}
	}
}

// fill sets every exported field reachable from v: leaf sets a
// string, number or bool; a pointer gets a new value, a slice n
// elements and a map n entries (nil when n is 0), each filled in turn.
func fill(v reflect.Value, n int, leaf func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n, leaf)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n, leaf)
	case reflect.Slice:
		if n == 0 {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := range n {
			fill(v.Index(i), n, leaf)
		}
	case reflect.Map:
		if n == 0 {
			return
		}
		v.Set(reflect.MakeMap(v.Type()))
		for range n {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, n, leaf)
			fill(e, n, leaf)
			v.SetMapIndex(k, e)
		}
	default:
		leaf(v)
	}
}
