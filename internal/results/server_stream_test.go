package results

// Server-shaped streams: the benchmark server appends or interleaves
// many runs' envelopes into shared files, and a dropped client can cut
// a stream mid-line. These tests pin the two properties the serving
// layer leans on: records separate cleanly back into their runs by
// (suite_sha, seed), and a truncated final line never poisons the
// records before it.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"aibench/internal/core"
)

// TestInterleavedRunsSeparable: envelopes from two different runs
// interleaved line-by-line in one file must be separable by the
// envelope's run identity (suite_sha + seed), each preserving its own
// file order.
func TestInterleavedRunsSeparable(t *testing.T) {
	metaA := core.RunMeta{SuiteSHA: "sha-a", Seed: 1, Kernel: "blocked"}
	metaB := core.RunMeta{SuiteSHA: "sha-b", Seed: 2, Kernel: "naive"}

	var bufA, bufB bytes.Buffer
	wA := NewWriter(&bufA, metaA)
	wB := NewWriter(&bufB, metaB)
	for e := 1; e <= 3; e++ {
		if err := wA.Write(core.Record{Kind: core.KindSession, Session: &core.SessionResult{
			ID: "DC-AI-C1", Epochs: e, Losses: []float64{1.0 / float64(e)},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wB.Write(core.Record{Kind: core.KindSession, Session: &core.SessionResult{
		ID: "DC-AI-C2", Epochs: 9,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := wB.Write(core.Record{Kind: core.KindReplay, Replay: &core.ReplaySession{
		ID: "DC-AI-C9", Hours: 2.5,
	}}); err != nil {
		t.Fatal(err)
	}

	// Interleave A and B line-by-line, as concurrent appenders would.
	linesA := strings.Split(strings.TrimSpace(bufA.String()), "\n")
	linesB := strings.Split(strings.TrimSpace(bufB.String()), "\n")
	var mixed []string
	for i := 0; i < len(linesA) || i < len(linesB); i++ {
		if i < len(linesA) {
			mixed = append(mixed, linesA[i])
		}
		if i < len(linesB) {
			mixed = append(mixed, linesB[i])
		}
	}

	s, err := Read(strings.NewReader(strings.Join(mixed, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Records) != 5 {
		t.Fatalf("decoded %d records, want 5", len(s.Records))
	}
	if len(s.Runs) != 2 {
		t.Fatalf("saw %d distinct runs, want 2: %+v", len(s.Runs), s.Runs)
	}

	byRun := func(suiteSHA string, seed int64) []core.Record {
		var out []core.Record
		for _, r := range s.Records {
			if r.Run != nil && r.Run.SuiteSHA == suiteSHA && r.Run.Seed == seed {
				out = append(out, r)
			}
		}
		return out
	}
	runA := byRun("sha-a", 1)
	if len(runA) != 3 {
		t.Fatalf("run A separated into %d records, want 3", len(runA))
	}
	for i, r := range runA {
		if r.Kind != core.KindSession || r.Session.Epochs != i+1 {
			t.Fatalf("run A record %d = kind %s epochs %d, want session epochs %d",
				i, r.Kind, r.Session.Epochs, i+1)
		}
		want := 1.0 / float64(i+1)
		if math.Float64bits(r.Session.Losses[0]) != math.Float64bits(want) {
			t.Fatalf("run A record %d loss %v, want bitwise %v", i, r.Session.Losses[0], want)
		}
	}

	runB := byRun("sha-b", 2)
	if len(runB) != 2 || runB[0].Kind != core.KindSession || runB[1].Kind != core.KindReplay {
		t.Fatalf("run B separated wrong: %+v", runB)
	}
	if runB[0].Run.Kernel != "naive" {
		t.Fatalf("run B kept kernel %q, want naive", runB[0].Run.Kernel)
	}

	// Same suite SHA but a different seed is a different run.
	if got := byRun("sha-a", 2); len(got) != 0 {
		t.Fatalf("run (sha-a, wrong seed) matched %d records, want 0", len(got))
	}
}

// TestTruncatedFinalLine: a stream cut mid-envelope — the dropped-client
// shape — must keep every earlier record, report Truncated, and drop
// only the partial tail.
func TestTruncatedFinalLine(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, core.RunMeta{SuiteSHA: "abc", Seed: 7})
	for e := 1; e <= 2; e++ {
		if err := w.Write(core.Record{Kind: core.KindSession, Session: &core.SessionResult{
			ID: "DC-AI-C1", Epochs: e,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.String()
	lines := strings.SplitAfter(strings.TrimSpace(full), "\n")
	last := lines[len(lines)-1]

	// Cut the final line at every possible byte boundary (dropping the
	// newline too): all of them must decode the first record intact.
	for cut := 0; cut < len(last); cut++ {
		in := strings.Join(lines[:len(lines)-1], "") + last[:cut]
		s, err := Read(strings.NewReader(in))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(s.Records) != 1 {
			t.Fatalf("cut at %d: %d records survived, want 1", cut, len(s.Records))
		}
		if got := s.Sessions()[0]; got.ID != "DC-AI-C1" || got.Epochs != 1 {
			t.Fatalf("cut at %d: surviving record decoded as %+v", cut, got)
		}
		// A zero-byte cut leaves a well-formed stream of one line;
		// any other cut leaves a partial tail that must be flagged.
		if wantTrunc := cut > 0; s.Truncated != wantTrunc {
			t.Fatalf("cut at %d: Truncated = %v, want %v", cut, s.Truncated, wantTrunc)
		}
	}

	// The intact stream is not truncated.
	s, err := Read(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if s.Truncated || len(s.Records) != 2 {
		t.Fatalf("intact stream: Truncated=%v records=%d, want false/2", s.Truncated, len(s.Records))
	}
}

// TestMidStreamGarbageStillErrors: truncation forgiveness applies only
// to the tail. Garbage with valid lines after it is corruption and
// must fail loudly, naming the line.
func TestMidStreamGarbageStillErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, core.RunMeta{SuiteSHA: "abc", Seed: 7})
	if err := w.Write(core.Record{Kind: core.KindSession, Session: &core.SessionResult{ID: "DC-AI-C1", Epochs: 1}}); err != nil {
		t.Fatal(err)
	}
	valid := strings.TrimSpace(buf.String())
	in := valid + "\n{cut-off-envelope\n" + valid + "\n"
	if _, err := Read(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("mid-stream garbage: error = %v, want a line-2 error", err)
	}
}

// TestTruncatedOnlyLineStillErrors: with nothing decoded before it, a
// bad line is indistinguishable from a wrong file — that stays an
// error rather than an empty success.
func TestTruncatedOnlyLineStillErrors(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"v":1,"kind":"session","run":{"seed":1},"data":{"id":`)); err == nil {
		t.Fatal("expected an error for a stream that is nothing but a truncated line")
	}
}

// TestKeyDerivation pins the cache key's shape and sensitivity: stable
// across calls, distinct across suite SHAs and canonical plans.
func TestKeyDerivation(t *testing.T) {
	canon := []byte(`{"kind":"session","benchmarks":["DC-AI-C1"],"seed":42}`)
	k1 := Key("sha-a", canon)
	if k1 != Key("sha-a", canon) {
		t.Fatal("Key is not deterministic")
	}
	if !strings.HasPrefix(k1, "sha256:") || len(k1) != len("sha256:")+64 {
		t.Fatalf("key shape %q, want sha256:<64 hex>", k1)
	}
	if Key("sha-b", canon) == k1 {
		t.Fatal("different suite SHA produced the same key")
	}
	if Key("sha-a", []byte(`{"kind":"session","benchmarks":["DC-AI-C2"],"seed":42}`)) == k1 {
		t.Fatal("different canonical plan produced the same key")
	}
}
