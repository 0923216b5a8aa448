package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"aibench/internal/telemetry"
)

// The wire protocol between the process backend and its worker
// children: length-prefixed binary frames over the child's
// stdin/stdout pipes.
//
//	u32 length (little-endian, = 1 + len(payload))
//	u8  type
//	payload
//
// Payload fields are fixed-width little-endian integers, float64s as
// their IEEE-754 bit patterns (math.Float64bits — the round trip is
// bitwise, which is what makes cross-backend determinism provable),
// strings and vectors length-prefixed with a u32; the three
// control-plane bodies (the hello, the spec reply, the close reply's
// counts) are JSON.
//
// The parent is the only initiator: it sends requests, and replyTo
// declares which reply each one gets. Begin-epoch and apply are
// one-way — the child runs them and answers nothing — because the
// child serves one ordered pipe in one sequential loop: it has finished
// apply(p) before it reads compute(p+1), so an acknowledgement would
// prove nothing the next reply does not. A child that fails in a
// one-way request sends an error frame in place of the next reply it
// owes (compute, quality and close always follow). Requests and
// replies therefore pair up in order and no frame ever needs an id.
const (
	// parent → child
	frameHello      byte = iota + 1 // hello
	frameBeginEpoch                 // (empty)
	frameCompute                    // phase
	frameApply                      // phase, grad, buf
	frameQuality                    // (empty)
	frameClose                      // (empty)

	// child → parent
	frameSpec       // GroupSpec
	framePhaseOut   // PhaseOut
	frameQualityOut // quality
	frameClosed     // kernel-op counts
	frameError      // message (terminal: the child is giving up)
)

// replyTo is the protocol, declared once for both ends: every request
// type the parent may send, mapped to the reply type the child answers
// it with — zero for a one-way request. A frame type it does not list
// is not a request.
var replyTo = map[byte]byte{
	frameHello:      frameSpec,
	frameBeginEpoch: 0,
	frameCompute:    framePhaseOut,
	frameApply:      0,
	frameQuality:    frameQualityOut,
	frameClose:      frameClosed,
}

// maxFrame bounds the length prefix readFrame accepts: a gradient
// frame is O(grains × paramLen) float64s, far under this for every
// benchmark in the zoo.
const maxFrame = 1 << 30

// frameChunk bounds what readFrame allocates on the prefix's word
// alone. A frame up to this size gets one exact-size buffer; a longer
// one starts here and at most doubles each time the bytes declared so
// far have actually arrived, so a corrupt or hostile prefix costs
// memory proportional to the bytes received, not to the number it
// declares.
const frameChunk = 1 << 20

// writeFrame emits one frame and flushes, so the peer — always blocked
// reading between requests — sees it immediately.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one frame. io.EOF surfaces unchanged so callers can
// tell a cleanly-closed pipe (dead peer) from a protocol error; a frame
// the stream ends inside — a peer killed mid-write — is an error that
// wraps io.EOF or io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame length %d out of range", n)
	}
	body := make([]byte, min(n, frameChunk))
	got := 0
	for {
		if _, err := io.ReadFull(r, body[got:]); err != nil {
			return 0, nil, fmt.Errorf("dist: truncated frame: %w", err)
		}
		got = len(body)
		if got == int(n) {
			return body[0], body[1:], nil
		}
		body = append(body, make([]byte, min(int(n)-got, got))...)
	}
}

// Payload append helpers.

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
func appendF64s(b []byte, vs []float64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

// frameReader decodes a payload sequentially; the first short read
// latches an error and every later call returns zero values, so decode
// sequences read cleanly and check fr.err once.
type frameReader struct {
	b   []byte
	err error
}

// need reports whether n more bytes are available, latching a
// truncation error when they are not.
func (f *frameReader) need(n int) bool {
	if f.err != nil {
		return false
	}
	if len(f.b) < n {
		f.err = fmt.Errorf("dist: truncated frame payload")
		return false
	}
	return true
}

func (f *frameReader) u32() uint32 {
	if !f.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(f.b)
	f.b = f.b[4:]
	return v
}

func (f *frameReader) u64() uint64 {
	if !f.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(f.b)
	f.b = f.b[8:]
	return v
}

func (f *frameReader) f64() float64 { return math.Float64frombits(f.u64()) }

func (f *frameReader) str() string {
	n := int(f.u32())
	if !f.need(n) {
		return ""
	}
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

// f64s decodes a float vector into dst (grown as needed, reused
// otherwise) so steady-state steps do not reallocate.
func (f *frameReader) f64s(dst []float64) []float64 {
	n := int(f.u32())
	if !f.need(8 * n) {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(f.b[8*i:]))
	}
	f.b = f.b[8*n:]
	return dst
}

// Hello, spec, close and phase-output frame bodies, shared by both ends.

// hello is the first frame a child receives: which replica to build
// and what the run computes on. The kernel travels as its name, which
// the child resolves with the same tensor.ResolveKernels call the
// parent's plan went through. It is control plane, sent once, and
// travels as JSON like the close reply's counts; whether the kernel
// exists is for ResolveKernels to say, not the decoder.
type hello struct {
	BenchID  string `json:"bench_id"`
	Kernel   string `json:"kernel"`
	Seed     int64  `json:"seed"`
	Rank     int    `json:"rank"`
	Workers  int    `json:"workers"`
	Counters bool   `json:"counters"`
}

func encodeHello(h hello) []byte {
	b, _ := json.Marshal(h) // strings, ints and bools cannot fail
	return b
}

func decodeHello(payload []byte) (h hello, err error) {
	err = json.Unmarshal(payload, &h)
	return h, err
}

// The close reply carries home what the child's counters hold: its
// kernel-op counts (a replica counts nothing else).

func encodeClosed(ops []telemetry.OpCount) []byte {
	b, _ := json.Marshal(ops) // strings and ints cannot fail
	return b
}

// decodeClosed is the parent's side of a trust boundary: the result is
// added into the run's counters as it stands, so a body that does not
// read as a snapshot — a negative call or FLOP total, an op listed
// twice — is refused here. An op name this binary does not know is
// left for Merge to drop.
func decodeClosed(payload []byte) (ops []telemetry.OpCount, err error) {
	if err = json.Unmarshal(payload, &ops); err != nil {
		return nil, fmt.Errorf("dist: decoding counters: %v", err)
	}
	for i, oc := range ops {
		if oc.Calls < 0 || oc.FLOPs < 0 {
			return nil, fmt.Errorf("dist: counters: op %q has negative totals (%d calls, %d flops)", oc.Op, oc.Calls, oc.FLOPs)
		}
		for _, prev := range ops[:i] {
			if prev.Op == oc.Op {
				return nil, fmt.Errorf("dist: counters: op %q listed twice", oc.Op)
			}
		}
	}
	return ops, nil
}

// The spec reply is control plane too, sent once per child, and
// travels as JSON (float64 targets round-trip bitwise through
// encoding/json's shortest-representation digits).

func encodeSpec(s GroupSpec) ([]byte, error) { return json.Marshal(s) }

// decodeSpec is the parent's side of a trust boundary: the engine sizes
// its reduce vectors and slices them by what the spec declares, and
// loops over its steps, so a spec that does not describe one workload —
// no phase, a group per phase missing, a group longer than the
// parameter set, a vector longer than any frame could carry, a negative
// step count — is refused here.
func decodeSpec(payload []byte) (s GroupSpec, err error) {
	if err = json.Unmarshal(payload, &s); err != nil {
		return GroupSpec{}, fmt.Errorf("dist: decoding spec: %v", err)
	}
	const maxVec = maxFrame / 8
	if len(s.Phases) == 0 || len(s.GroupLen) != len(s.Phases) || s.ParamLen > maxVec || s.BufLen < 0 || s.BufLen > maxVec || s.Steps < 0 {
		return GroupSpec{}, fmt.Errorf("dist: spec: %d phases, %d reduce groups, %d params, %d buffers, %d steps do not describe a workload",
			len(s.Phases), len(s.GroupLen), s.ParamLen, s.BufLen, s.Steps)
	}
	for p, n := range s.GroupLen {
		if n < 0 || n > s.ParamLen {
			return GroupSpec{}, fmt.Errorf("dist: spec: phase %q reduces %d of %d params", s.Phases[p].Name, n, s.ParamLen)
		}
	}
	return s, nil
}

func encodePhaseOut(out PhaseOut) []byte {
	b := appendU32(nil, uint32(out.Total))
	b = appendU32(b, uint32(len(out.Grains)))
	for _, g := range out.Grains {
		b = appendU32(b, uint32(g.Grain))
		b = appendU32(b, uint32(g.N))
		b = appendF64(b, g.Loss)
		b = appendF64s(b, g.Grad)
		b = appendF64s(b, g.Buf)
	}
	return b
}

// grainMin is the fewest bytes a grain occupies in a phase-out frame
// (its index, sample count, loss and two empty vectors).
const grainMin = 4 + 4 + 8 + 4 + 4

// decodePhaseOut decodes into out, reusing its grain vectors. It is the
// parent's side of a trust boundary: the grain count is bounded by the
// bytes the frame actually holds, and every grain must carry a gradient
// of gradLen floats and a buffer capture of bufLen — the lengths the
// group's spec declared, which the engine's reduce indexes by.
func decodePhaseOut(payload []byte, out *PhaseOut, gradLen, bufLen int) error {
	fr := &frameReader{b: payload}
	out.Total = int(fr.u32())
	n := int(fr.u32())
	if fr.err == nil && n > len(fr.b)/grainMin {
		fr.err = fmt.Errorf("dist: phase-out frame declares %d grains in %d bytes", n, len(fr.b))
	}
	if fr.err != nil {
		return fr.err
	}
	for len(out.Grains) < n {
		out.Grains = append(out.Grains, GrainOut{})
	}
	out.Grains = out.Grains[:n]
	for i := 0; i < n; i++ {
		g := &out.Grains[i]
		g.Grain = int(fr.u32())
		g.N = int(fr.u32())
		g.Loss = fr.f64()
		g.Grad = fr.f64s(g.Grad)
		g.Buf = fr.f64s(g.Buf)
		if fr.err == nil && (len(g.Grad) != gradLen || len(g.Buf) != bufLen) {
			return fmt.Errorf("dist: grain %d carries %d gradient and %d buffer floats, the spec declared %d and %d",
				g.Grain, len(g.Grad), len(g.Buf), gradLen, bufLen)
		}
	}
	return fr.err
}
