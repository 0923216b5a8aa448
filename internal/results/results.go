// Package results persists and replays benchmark run records. Every
// record a Plan run emits — training sessions, characterizations,
// scaling rows, replay sessions — is written as one JSONL line wrapped
// in a versioned envelope:
//
//	{"v":1,"kind":"session","run":{"suite_sha":"…","seed":42,"kernel":"blocked","shards":2,"started":"…"},"data":{…}}
//
// so a persisted stream carries enough provenance to rebuild every run
// report later — `aibench report -from results.jsonl` — without
// re-running anything. Readers skip records with an unknown version or
// kind instead of failing, so streams written by newer suite revisions
// stay partially readable, and bare SessionResult lines from the
// pre-envelope format still decode as session records.
//
// A Writer encodes each record once and without reflection: each
// record kind has an encoder that appends its payload field by field
// into the line's buffer behind the envelope header, giving the bytes
// encoding/json would, and the finished line reaches the output in one
// Write. Reading still goes through encoding/json.
package results

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"aibench/internal/core"
	"aibench/internal/telemetry"
)

// Version is the envelope schema version this package writes.
const Version = 1

// Key derives the exact-result-cache key binding a canonical Plan (see
// core.Plan.Canonical) to the suite roster that would run it. Runs are
// bitwise-deterministic functions of (roster, canonical plan), so a
// result stream stored under this key can be replayed byte-identically
// for every later identical submission with zero retraining.
func Key(suiteSHA string, canonicalPlan []byte) string {
	h := sha256.New()
	h.Write([]byte(suiteSHA))
	h.Write([]byte{'\n'})
	h.Write(canonicalPlan)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// maxLine bounds one JSONL line (a session record carries its full
// loss trace, so lines can run long).
const maxLine = 64 << 20

// Envelope is one persisted JSONL line: a versioned, kind-tagged
// wrapper binding a record to the run that produced it.
type Envelope struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	Run  core.RunMeta    `json:"run"`
	Data json.RawMessage `json:"data"`
}

// Writer streams records as enveloped JSONL lines. Each record is
// encoded once and without reflection: NewWriter marshals the run
// identity once, and Write builds the whole line in one buffer the
// writer reuses — the envelope header, the payload appended field by
// field by the encoder of its kind (encode.go), the closing brace — and
// hands it to the output in one Write. The bytes are those
// encoding/json gives the same payload. Writes are serialized
// internally, so it can back a Runner sink directly.
type Writer struct {
	mu    sync.Mutex
	out   io.Writer
	run   []byte // the encoded RunMeta
	err   error  // why the RunMeta did not encode
	line  encoder
	count int
}

// lineCap is the line buffer a Writer starts with.
const lineCap = 1 << 10

// NewWriter wraps w; every envelope carries meta as its run identity.
func NewWriter(w io.Writer, meta core.RunMeta) *Writer {
	out := &Writer{out: w}
	out.run, out.err = json.Marshal(meta)
	// A session line of a short run fits in lineCap; a longer line
	// grows the buffer once, and the writer keeps it.
	out.line.b = make([]byte, 0, lineCap)
	return out
}

// Write envelopes one record and appends it as a JSONL line. It has
// the Runner sink signature, so `runner.Run(ctx, w.Write)` persists a
// whole run. A record holding a NaN or infinite float is an error, and
// nothing of it is written or counted.
func (w *Writer) Write(rec core.Record) error {
	if rec.Payload() == nil {
		return fmt.Errorf("results: record kind %q carries no payload", rec.Kind)
	}
	return w.write(rec, "")
}

// WriteError writes the envelope of kind "error" around the payload
// {"error":msg} to w, byte for byte as a Writer builds its lines. It
// serves a server's terminal error line, which is not a run record.
func WriteError(w io.Writer, meta core.RunMeta, msg string) error {
	return NewWriter(w, meta).write(core.Record{Kind: kindError}, msg)
}

// write builds the line
//
//	{"v":1,"kind":"<kind>","run":<meta>,"data":<payload>}
//
// and writes it. The bytes are those of json.Encoder encoding an
// Envelope whose Data is json.Marshal(payload). The kind is a bare
// identifier (a record kind or "error") and needs no escaping.
func (w *Writer) write(rec core.Record, msg string) error {
	if w.err != nil {
		return fmt.Errorf("results: encode run identity: %v", w.err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	e := &w.line
	e.b, e.err = e.b[:0], nil
	e.i64(`{"v":`, Version)
	e.raw(`,"kind":"`)
	e.raw(string(rec.Kind))
	e.raw(`","run":`)
	e.b = append(e.b, w.run...)
	e.raw(`,"data":`)
	e.payload(rec, msg)
	if e.err != nil {
		return fmt.Errorf("results: encode %s record: %v", rec.Kind, e.err)
	}
	e.raw("}\n")
	if _, err := w.out.Write(e.b); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns how many records have been written.
func (w *Writer) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Stream is a decoded result stream.
type Stream struct {
	// Records holds every decoded record in file order.
	Records []core.Record
	// Runs lists the distinct run identities seen, in first-seen order.
	Runs []core.RunMeta
	// Skipped counts records dropped for carrying an unknown envelope
	// version or record kind — forward compatibility, not an error.
	Skipped int
	// Truncated reports that the stream's final line was undecodable
	// after at least one record decoded cleanly — the shape a dropped
	// client leaves behind when a server stream is cut mid-envelope.
	// The truncated tail is discarded; every earlier record is kept.
	// Mid-stream garbage is still an error: only the last line can be
	// forgiven, because only the last line can be a partial write.
	Truncated bool
}

// Read decodes a JSONL result stream: enveloped records of a known
// version and kind become Records, unknown versions/kinds count as
// Skipped, bare pre-envelope SessionResult lines decode as session
// records, and anything else is an error naming the line.
func Read(r io.Reader) (*Stream, error) {
	s := &Stream{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	line := 0
	// An undecodable line is held here rather than returned on the
	// spot: if any content follows it, the stream is corrupt and the
	// held error surfaces; if nothing follows, the bad line was the
	// stream's tail — the shape a disconnected client leaves — and is
	// forgiven as Truncated so earlier records stay readable.
	var pendingErr error
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr // the bad line wasn't the last: corrupt, not truncated
		}
		var env Envelope
		envErr := json.Unmarshal(raw, &env)
		if envErr != nil || (env.V == 0 && env.Kind == "") {
			// Legacy stream: `run-all -out` wrote bare SessionResult
			// lines before the envelope existed. (Their int "kind"
			// field — the SessionKind — also fails the envelope's
			// string kind, so an envelope decode error lands here too.)
			var sr core.SessionResult
			if err := json.Unmarshal(raw, &sr); err != nil || sr.ID == "" {
				if envErr != nil {
					pendingErr = fmt.Errorf("results: line %d: %v", line, envErr)
				} else {
					pendingErr = fmt.Errorf("results: line %d: neither a result envelope nor a legacy session result", line)
				}
				continue
			}
			s.Records = append(s.Records, core.Record{Kind: core.KindSession, Session: &sr})
			continue
		}
		if env.V != Version {
			s.Skipped++
			continue
		}
		rec, known, err := decode(env)
		if err != nil {
			pendingErr = fmt.Errorf("results: line %d: %v", line, err)
			continue
		}
		if !known {
			s.Skipped++
			continue
		}
		s.addRun(env.Run)
		// Stamp the envelope's run identity on the record, mirroring
		// what RunResult.Records does live, so renderers can show
		// run-level columns (backend, kernel) from a rebuilt stream
		// too. Legacy bare lines above keep a nil Run.
		run := env.Run
		rec.Run = &run
		s.Records = append(s.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("results: %v", err)
	}
	if pendingErr != nil {
		if len(s.Records) == 0 {
			return nil, pendingErr // nothing salvageable: surface the corruption
		}
		s.Truncated = true
	}
	return s, nil
}

// decode unmarshals an envelope's payload; known is false for record
// kinds this revision doesn't understand.
func decode(env Envelope) (rec core.Record, known bool, err error) {
	switch core.RecordKind(env.Kind) {
	case core.KindSession:
		v := new(core.SessionResult)
		err = json.Unmarshal(env.Data, v)
		rec = core.Record{Kind: core.KindSession, Session: v}
	case core.KindCharacterization:
		v := new(core.Characterization)
		err = json.Unmarshal(env.Data, v)
		rec = core.Record{Kind: core.KindCharacterization, Characterization: v}
	case core.KindScaling:
		v := new(core.ScalingRow)
		err = json.Unmarshal(env.Data, v)
		rec = core.Record{Kind: core.KindScaling, Scaling: v}
	case core.KindReplay:
		v := new(core.ReplaySession)
		err = json.Unmarshal(env.Data, v)
		rec = core.Record{Kind: core.KindReplay, Replay: v}
	case core.KindTrace:
		v := new(telemetry.Trace)
		err = json.Unmarshal(env.Data, v)
		rec = core.Record{Kind: core.KindTrace, Trace: v}
	case core.KindRunMetrics:
		v := new(telemetry.RunMetrics)
		err = json.Unmarshal(env.Data, v)
		rec = core.Record{Kind: core.KindRunMetrics, RunMetrics: v}
	default:
		return core.Record{}, false, nil
	}
	if err != nil {
		return core.Record{}, true, fmt.Errorf("decode %s record: %v", env.Kind, err)
	}
	return rec, true, nil
}

func (s *Stream) addRun(m core.RunMeta) {
	for _, seen := range s.Runs {
		if seen == m {
			return
		}
	}
	s.Runs = append(s.Runs, m)
}

// Sessions returns the stream's session records in file order.
func (s *Stream) Sessions() []core.SessionResult {
	var out []core.SessionResult
	for _, r := range s.Records {
		if r.Kind == core.KindSession && r.Session != nil {
			out = append(out, *r.Session)
		}
	}
	return out
}
