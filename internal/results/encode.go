package results

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"aibench/internal/core"
	"aibench/internal/gpusim"
	"aibench/internal/telemetry"
)

// kindError is the envelope kind of a server's terminal error line. It
// is not a record kind: Read skips it as unknown.
const kindError core.RecordKind = "error"

// encoder appends one record's payload as JSON, byte for byte as
// encoding/json marshals it: struct fields in declaration order under
// their tag names (omitempty honoured), map keys sorted, nil slices and
// maps as null, strings HTML-escaped, floats in encoding/json's format.
// A NaN or infinite float is err; the bytes appended with it are
// garbage and the caller drops the line.
type encoder struct {
	b   []byte
	err error // the first value JSON cannot represent
}

// payload appends rec's payload, or for kindError the object
// {"error":msg}. Record.Payload has vetted that the field Kind names
// is set. Each value method takes the bytes that go before the value:
// the key with its punctuation, or nothing inside an array.
func (e *encoder) payload(rec core.Record, msg string) {
	switch rec.Kind {
	case core.KindSession:
		e.session(rec.Session)
	case core.KindCharacterization:
		e.characterization(rec.Characterization)
	case core.KindScaling:
		s := rec.Scaling
		e.str(`{"id":`, s.ID)
		e.str(`,"name":`, s.Name)
		list(e, `,"points":`, s.Points, (*encoder).scalingPoint)
		e.raw(`}`)
	case core.KindReplay:
		r := rec.Replay
		e.str(`{"id":`, r.ID)
		e.f64(`,"epochs":`, r.Epochs)
		e.f64(`,"hours":`, r.Hours)
		e.raw(`}`)
	case core.KindTrace:
		e.trace(rec.Trace)
	case core.KindRunMetrics:
		e.runMetrics(rec.RunMetrics)
	case kindError:
		e.str(`{"error":`, msg)
		e.raw(`}`)
	default:
		panic("results: no encoder for record kind " + string(rec.Kind))
	}
}

func (e *encoder) session(s *core.SessionResult) {
	e.str(`{"id":`, s.ID)
	e.str(`,"name":`, s.Name)
	e.i64(`,"kind":`, int64(s.Kind))
	e.i64(`,"epochs":`, int64(s.Epochs))
	e.i64(`,"shards":`, int64(s.Shards))
	e.str(`,"kernel":`, s.Kernel)
	if s.Interrupted {
		e.boolean(`,"interrupted":`, true)
	}
	if s.Error != "" {
		e.str(`,"error":`, s.Error)
	}
	e.boolean(`,"reached_goal":`, s.ReachedGoal)
	e.f64(`,"final_quality":`, s.FinalQuality)
	e.f64(`,"target":`, s.Target)
	list(e, `,"losses":`, s.Losses, func(e *encoder, l *float64) { e.f64("", *l) })
	e.raw(`}`)
}

func (e *encoder) characterization(c *core.Characterization) {
	e.str(`{"id":`, c.ID)
	e.str(`,"suite":`, c.Suite)
	e.str(`,"task":`, c.Task)
	e.f64(`,"mflops":`, c.MFLOPs)
	e.f64(`,"mparams":`, c.MParams)
	e.f64(`,"epochs":`, c.Epochs)
	m := &c.Metrics
	e.f64(`,"metrics":{"achieved_occupancy":`, m.AchievedOccupancy)
	e.f64(`,"ipc_efficiency":`, m.IPCEfficiency)
	e.f64(`,"gld_efficiency":`, m.GldEfficiency)
	e.f64(`,"gst_efficiency":`, m.GstEfficiency)
	e.f64(`,"dram_utilization":`, m.DramUtilization)
	e.raw(`}`)
	categoryMap(e, `,"shares":`, c.Shares, (*encoder).f64)
	list(e, `,"hotspots":`, c.Hotspots, (*encoder).hotspot)
	categoryMap(e, `,"stalls":`, c.Stalls, (*encoder).stalls)
	e.raw(`}`)
}

func (e *encoder) hotspot(h *gpusim.Hotspot) {
	e.str(`{"name":`, h.Name)
	e.str(`,"category":`, string(h.Category))
	e.f64(`,"share":`, h.Share)
	e.i64(`,"calls":`, int64(h.Calls))
	e.raw(`}`)
}

func (e *encoder) stalls(pre string, s gpusim.StallBreakdown) {
	e.raw(pre)
	e.f64(`{"inst_fetch":`, s.InstFetch)
	e.f64(`,"exe_depend":`, s.ExecDepend)
	e.f64(`,"mem_depend":`, s.MemDepend)
	e.f64(`,"texture":`, s.Texture)
	e.f64(`,"sync":`, s.Sync)
	e.f64(`,"const_mem_depend":`, s.ConstMemDepend)
	e.f64(`,"pipe_busy":`, s.PipeBusy)
	e.f64(`,"mem_throttle":`, s.MemThrottle)
	e.raw(`}`)
}

func (e *encoder) scalingPoint(p *core.ScalingPoint) {
	e.i64(`{"shards":`, int64(p.Shards))
	e.f64(`,"sec_per_epoch":`, p.SecPerEpoch)
	e.f64(`,"speedup":`, p.Speedup)
	e.raw(`}`)
}

func (e *encoder) trace(t *telemetry.Trace) {
	e.str(`{"kind":`, t.Kind)
	list(e, `,"spans":`, t.Spans, (*encoder).spanRecord)
	c := &t.Counters
	e.i64(`,"counters":{"epochs":`, c.Epochs)
	e.i64(`,"grains":`, c.Grains)
	e.i64(`,"reduce_rounds":`, c.ReduceRounds)
	e.i64(`,"reduce_floats":`, c.ReduceFloats)
	e.i64(`,"sink_records":`, c.SinkRecords)
	if len(c.Kernel) > 0 {
		list(e, `,"kernel":`, c.Kernel, (*encoder).opCount)
	}
	e.raw(`}}`)
}

func (e *encoder) spanRecord(s *telemetry.SpanRecord) {
	e.i64(`{"id":`, int64(s.ID))
	e.i64(`,"parent":`, int64(s.Parent))
	e.str(`,"name":`, s.Name)
	e.i64(`,"seq":`, int64(s.Seq))
	if s.Value != 0 {
		e.i64(`,"value":`, s.Value)
	}
	e.raw(`}`)
}

func (e *encoder) opCount(op *telemetry.OpCount) {
	e.str(`{"op":`, op.Op)
	e.i64(`,"calls":`, op.Calls)
	e.i64(`,"flops":`, op.FLOPs)
	e.raw(`}`)
}

func (e *encoder) runMetrics(m *telemetry.RunMetrics) {
	e.str(`{"kind":`, m.Kind)
	e.i64(`,"wall_ns":`, m.WallNS)
	e.i64(`,"gomaxprocs":`, int64(m.GOMAXPROCS))
	e.u64(`,"heap_bytes":`, m.HeapBytes)
	e.u64(`,"total_alloc_bytes":`, m.TotalAllocBytes)
	e.u64(`,"gc_cycles":`, m.GCCycles)
	p := &m.Pool
	e.i64(`,"pool":{"calls":`, p.Calls)
	e.i64(`,"serial_calls":`, p.SerialCalls)
	e.i64(`,"extra_requested":`, p.ExtraRequested)
	e.i64(`,"extra_acquired":`, p.ExtraAcquired)
	e.i64(`,"busy_ns":`, p.BusyNS)
	e.raw(`}`)
	list(e, `,"spans":`, m.Spans, func(e *encoder, s *telemetry.SpanTiming) {
		e.i64(`{"id":`, int64(s.ID))
		e.i64(`,"start_ns":`, s.StartNS)
		e.i64(`,"dur_ns":`, s.DurNS)
		e.raw(`}`)
	})
	e.raw(`}`)
}

// list appends pre and xs as a JSON array, or null for a nil slice.
func list[T any](e *encoder, pre string, xs []T, elem func(*encoder, *T)) {
	e.raw(pre)
	if xs == nil {
		e.raw(`null`)
		return
	}
	e.raw(`[`)
	for i := range xs {
		if i > 0 {
			e.raw(`,`)
		}
		elem(e, &xs[i])
	}
	e.raw(`]`)
}

// categoryMap appends pre and m as a JSON object with its keys sorted,
// or null for a nil map, as encoding/json does. The keys are sorted in
// an array on the stack, which holds every category the simulator has.
func categoryMap[V any](e *encoder, pre string, m map[gpusim.Category]V, value func(*encoder, string, V)) {
	e.raw(pre)
	if m == nil {
		e.raw(`null`)
		return
	}
	var stack [8]gpusim.Category
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.raw(`{`)
	for i, k := range keys {
		if i > 0 {
			e.raw(`,`)
		}
		e.str("", string(k))
		value(e, ":", m[k])
	}
	e.raw(`}`)
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) str(pre, s string) { e.b = appendString(append(e.b, pre...), s) }

func (e *encoder) i64(pre string, v int64) { e.b = strconv.AppendInt(append(e.b, pre...), v, 10) }

func (e *encoder) u64(pre string, v uint64) { e.b = strconv.AppendUint(append(e.b, pre...), v, 10) }

func (e *encoder) boolean(pre string, v bool) { e.b = strconv.AppendBool(append(e.b, pre...), v) }

func (e *encoder) f64(pre string, f float64) {
	e.b, e.err = appendFloat(append(e.b, pre...), f, e.err)
}

// appendFloat appends f as encoding/json writes a float64: the
// shortest decimal that round-trips, in 'f' form unless |f| < 1e-6 or
// |f| ≥ 1e21 (0 excepted), where it is 'e' form with a one-digit
// negative exponent not padded (1e-7, not 1e-07). JSON has no NaN or
// infinity: either is an error, kept in err unless err already holds
// one.
func appendFloat(b []byte, f float64, err error) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if err == nil {
			err = fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, err
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on (a port of its appendString, Copyright The Go
// Authors, BSD-style license): " and \ escaped, the control bytes as
// \b, \f, \n, \r, \t or \u00XX, <, > and & as \u003c, \u003e and
// \u0026, U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
