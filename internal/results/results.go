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
// A Writer encodes each record once: the payload is encoded straight
// into the line's buffer behind the envelope header, and the finished
// line reaches the output in one Write.
package results

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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
// encoded once: NewWriter encodes the run identity once, and Write
// builds the whole line in one buffer the writer reuses — the envelope
// header, the payload encoded straight into the buffer, the closing
// brace — and hands it to the output in one Write. Writes are
// serialized internally, so it can back a Runner sink directly.
type Writer struct {
	mu    sync.Mutex
	out   io.Writer
	run   []byte // the encoded RunMeta
	err   error  // why the RunMeta did not encode
	line  bytes.Buffer
	enc   *json.Encoder // encodes into line
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
	out.line.Grow(lineCap)
	out.enc = json.NewEncoder(&out.line)
	return out
}

// Write envelopes one record and appends it as a JSONL line. It has
// the Runner sink signature, so `runner.Run(ctx, w.Write)` persists a
// whole run.
func (w *Writer) Write(rec core.Record) error {
	payload := rec.Payload()
	if payload == nil {
		return fmt.Errorf("results: record kind %q carries no payload", rec.Kind)
	}
	return w.write(string(rec.Kind), payload)
}

// WriteLine writes one envelope of the given kind around payload to w,
// byte for byte as a Writer would. It serves one-off lines that are not
// run records, such as a server's terminal error line.
func WriteLine(w io.Writer, kind string, meta core.RunMeta, payload any) error {
	return NewWriter(w, meta).write(kind, payload)
}

// write builds the line
//
//	{"v":1,"kind":"<kind>","run":<meta>,"data":<payload>}
//
// and writes it. The bytes are those of json.Encoder encoding an
// Envelope whose Data is json.Marshal(payload): Marshal's output is
// already compact and HTML-escaped, so the encoder's rescan of the
// RawMessage changed nothing. kind is a bare identifier (a record kind
// or "error") and needs no escaping.
func (w *Writer) write(kind string, payload any) error {
	if w.err != nil {
		return fmt.Errorf("results: encode run identity: %v", w.err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	b := &w.line
	b.Reset()
	b.WriteString(`{"v":`)
	b.WriteString(strconv.Itoa(Version))
	b.WriteString(`,"kind":"`)
	b.WriteString(kind)
	b.WriteString(`","run":`)
	b.Write(w.run)
	b.WriteString(`,"data":`)
	if err := w.enc.Encode(payload); err != nil {
		return fmt.Errorf("results: encode %s record: %v", kind, err)
	}
	b.Truncate(b.Len() - 1) // the encoder's newline
	b.WriteString("}\n")
	if _, err := w.out.Write(b.Bytes()); err != nil {
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
