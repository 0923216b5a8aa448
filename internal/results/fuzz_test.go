package results

// FuzzEnvelopeDecode hardens the replay path: `aibench-report -from`
// feeds whatever bytes are on disk straight into Read, so a corrupted,
// truncated, or future-versioned stream must come back as an error or
// a Skipped count — never a panic. CI runs a short fuzz smoke on every
// push; `go test -fuzz=FuzzEnvelopeDecode ./internal/results` explores
// further locally.

import (
	"bytes"
	"strings"
	"testing"

	"aibench/internal/core"
)

func FuzzEnvelopeDecode(f *testing.F) {
	// A well-formed stream produced by the Writer itself.
	var valid bytes.Buffer
	w := NewWriter(&valid, core.RunMeta{SuiteSHA: "abc123", Seed: 42, Kernel: "blocked", Shards: 2})
	if err := w.Write(core.Record{Kind: core.KindSession, Session: &core.SessionResult{ID: "img-cls", Name: "Image Classification", Epochs: 2}}); err != nil {
		f.Fatal(err)
	}
	if err := w.Write(core.Record{Kind: core.KindScaling, Scaling: &core.ScalingRow{ID: "img-cls", Points: []core.ScalingPoint{{Shards: 1, SecPerEpoch: 0.5, Speedup: 1}}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())

	// Telemetry envelopes: a valid trace + runmetrics pair, and hostile
	// variants (span ids out of range, counters of the wrong type).
	f.Add([]byte(`{"v":1,"kind":"trace","run":{},"data":{"kind":"session","spans":[{"id":0,"parent":-1,"name":"run"},{"id":1,"parent":0,"name":"DC-AI-C1","seq":0}],"counters":{"epochs":2,"grains":16,"reduce_rounds":4,"reduce_floats":1024,"sink_records":2,"kernel":[{"op":"matmul","calls":4,"flops":2048}]}}}` + "\n" +
		`{"v":1,"kind":"runmetrics","run":{},"data":{"kind":"session","wall_ns":5000000,"gomaxprocs":2,"pool":{},"spans":[{"id":0,"dur_ns":5000000},{"id":1,"start_ns":1000,"dur_ns":400000}]}}`))
	f.Add([]byte(`{"v":1,"kind":"trace","run":{},"data":{"spans":[{"id":9999,"parent":-7,"name":""}]}}`))
	f.Add([]byte(`{"v":1,"kind":"trace","run":{},"data":{"counters":"not an object"}}`))

	// Run headers and payloads a reader must take as they come: keys it
	// does not know (a retired field, a future one), a characterization
	// whose maps hold the wrong types, a replay with a null payload.
	f.Add([]byte(`{"v":1,"kind":"replay","run":{"suite_sha":"abc123","seed":1,"kernel":"blocked","shards":0,"retired":"x","future":[1,{}]},"data":{"id":"DC-AI-C9","epochs":6,"hours":2.5}}`))
	f.Add([]byte(`{"v":1,"kind":"characterization","run":{},"data":{"id":"DC-AI-C1","shares":{"GEMM":"half"},"stalls":[]}}`))
	f.Add([]byte(`{"v":1,"kind":"replay","run":null,"data":null}`))

	// The forward/backward-compatibility shapes Read promises to handle.
	f.Add([]byte(`{"v":99,"kind":"session","run":{},"data":{}}`))           // future version → Skipped
	f.Add([]byte(`{"v":1,"kind":"hologram","run":{},"data":{}}`))           // unknown kind → Skipped
	f.Add([]byte(`{"id":"img-cls","name":"legacy","kind":0,"epochs":3}`))   // pre-envelope bare SessionResult
	f.Add([]byte(`{"v":1,"kind":"session","run":{"seed":1},"data":{"id":`)) // truncated mid-line
	f.Add([]byte(`{"v":1,"kind":"session","run":{},"data":[1,2,3]}`))       // payload of the wrong shape
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte("not json at all"))
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		// On success the stream must be internally consistent enough for
		// every report-rebuild accessor to walk it.
		if s.Skipped < 0 {
			t.Fatalf("negative skip count %d", s.Skipped)
		}
		total := 0
		for kind, n := range s.Kinds() {
			if strings.TrimSpace(string(kind)) == "" {
				t.Fatalf("decoded record with empty kind")
			}
			total += n
		}
		if total != len(s.Records) {
			t.Fatalf("Kinds() counts %d records, stream has %d", total, len(s.Records))
		}
		_ = s.Sessions()
		_ = s.Traces()
		_ = s.RunMetrics()
	})
}
