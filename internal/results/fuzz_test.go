package results

// FuzzEnvelopeDecode hardens the replay path: `aibench report -from`
// feeds whatever bytes are on disk straight into Read, so a corrupted,
// truncated, or future-versioned stream must come back as an error or
// a Skipped count — never a panic. CI runs a short fuzz smoke on every
// push; `go test -fuzz=FuzzEnvelopeDecode ./internal/results` explores
// further locally.

import (
	"bytes"
	"math"
	"reflect"
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
		for _, r := range s.Records {
			if strings.TrimSpace(string(r.Kind)) == "" {
				t.Fatalf("decoded record with empty kind")
			}
		}
		_ = s.Sessions()
	})
}

// FuzzRecordLine is the Writer's differential test: every string field
// of each record kind (and the error line's message) takes the fuzzed
// bytes, invalid UTF-8 included, every float field one of two fuzzed
// bit patterns, every integer the fuzzed int64 (so omitempty fields
// come and go), and slices and maps hold 0 (nil), 1 or 2 elements. The
// Writer's line must equal the double encoding's; where encoding/json
// refuses the payload (a NaN or an infinity), the Writer must fail too
// and write and count nothing. CI runs a short smoke of it;
// `go test -run '^$' -fuzz FuzzRecordLine ./internal/results` explores
// further.
func FuzzRecordLine(f *testing.F) {
	for _, s := range []string{"", "DC-AI-C1", awkward, "\xff\xfe\xc0\x80", "a\x00\x1f\x7f\"\\\b\f\n\r\t", "\u2029\ufffd"} {
		f.Add(s, math.Float64bits(0.1+0.2), math.Float64bits(3e21), int64(2))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, 1e-6, math.Nextafter(1e-6, 0), -1e-7,
		1e21, math.Nextafter(1e21, 0), -1e21, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("x", math.Float64bits(x), math.Float64bits(-x), int64(1))
	}
	meta := core.RunMeta{SuiteSHA: "abc123", Seed: 42, Kernel: "blocked", Shards: 2, Backend: "process"}
	f.Fuzz(func(t *testing.T, s string, a, b uint64, n int64) {
		floats := [2]float64{math.Float64frombits(a), math.Float64frombits(b)}
		next := 0
		leaf := func(v reflect.Value) {
			switch v.Kind() {
			case reflect.String:
				v.SetString(s)
			case reflect.Int, reflect.Int64:
				v.SetInt(n)
			case reflect.Uint64:
				v.SetUint(uint64(n))
			case reflect.Float64:
				v.SetFloat(floats[next%2])
				next++
			case reflect.Bool:
				v.SetBool(n&1 != 0)
			default:
				t.Fatalf("no filler for a %s field", v.Type())
			}
		}
		check := func(kind string, payload any, write func(*bytes.Buffer) (int, error)) {
			var got bytes.Buffer
			count, err := write(&got)
			want, werr := oracle(kind, meta, payload)
			if werr != nil {
				if err == nil || got.Len() != 0 || count != 0 {
					t.Fatalf("%s: encoding/json refuses the payload (%v); the Writer returned %v, wrote %q and counted %d", kind, werr, err, got.Bytes(), count)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s:\n got %s\nwant %s", kind, got.Bytes(), want)
			}
		}
		for _, r := range awkwardRecords() {
			v := reflect.ValueOf(r.Payload()).Elem()
			v.SetZero()
			fill(v, int(uint64(n)%3), leaf)
			check(string(r.Kind), r.Payload(), func(out *bytes.Buffer) (int, error) {
				w := NewWriter(out, meta)
				err := w.Write(r)
				return w.Count(), err
			})
		}
		line := struct {
			Error string `json:"error"`
		}{s}
		check("error", line, func(out *bytes.Buffer) (int, error) {
			return 0, WriteError(out, meta, s)
		})
	})
}
