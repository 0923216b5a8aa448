package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"aibench/internal/models"
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
// alone. A frame up to this size (or up to the reading buffer's
// capacity) is read in one go; a longer one starts there and at most
// doubles each time the bytes declared so far have actually arrived, so
// a corrupt or hostile prefix costs memory proportional to the bytes
// received, not to the number it declares.
const frameChunk = 1 << 20

// writeFrame emits one frame and flushes, so the peer — always blocked
// reading between requests — sees it immediately. The header is built
// in the writer's own free space, so a frame costs no allocation.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(1+len(payload)))
	if _, err := w.Write(append(hdr, typ)); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one frame into *buf, the reading peer's own buffer,
// and returns the payload as a slice of it: a payload is valid until
// the next frame is read into the same buffer, so every decoder copies
// out what it keeps (frameReader.f64s, str, JSON). The buffer is kept
// and grown: a frame up to its capacity costs no allocation, and growth
// follows the frameChunk rule. io.EOF surfaces unchanged so callers can
// tell a cleanly-closed pipe (dead peer) from a protocol error; a frame
// the stream ends inside — a peer killed mid-write — is an error that
// wraps io.EOF or io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader, buf *[]byte) (byte, []byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, nil, err
	}
	n32 := binary.LittleEndian.Uint32(hdr)
	_, _ = r.Discard(4) // Peek just buffered them
	if n32 == 0 || n32 > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame length %d out of range", n32)
	}
	n := int(n32)
	body := (*buf)[:0]
	for got := 0; got < n; got = len(body) {
		// Fill what the buffer already holds, or one chunk, or double
		// the bytes that have arrived — never more than the frame.
		next := min(n, max(cap(body), frameChunk, 2*got))
		body = slices.Grow(body, next-got)[:next]
		if _, err := io.ReadFull(r, body[got:]); err != nil {
			return 0, nil, fmt.Errorf("dist: truncated frame: %w", err)
		}
	}
	*buf = body
	return body[0], body[1:], nil
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
	off := len(b)
	b = slices.Grow(b, 8*len(vs))[:off+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(v))
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
// truncation error when they are not. n is 64 bits wide, so a length a
// payload declares is bounded before it is ever converted to an int.
func (f *frameReader) need(n uint64) bool {
	if f.err != nil {
		return false
	}
	if uint64(len(f.b)) < n {
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

// count decodes a u32 the decoder keeps as an int. Where int is 32 bits,
// a value above math.MaxInt is refused before the conversion could make
// it negative; where it is 64 bits, every u32 fits and nothing changes.
func (f *frameReader) count() int {
	v := f.u32()
	if f.err == nil && uint64(v) > math.MaxInt {
		f.err = fmt.Errorf("dist: frame field %d out of range", v)
	}
	if f.err != nil {
		return 0
	}
	return int(v)
}

func (f *frameReader) str() string {
	n := f.u32()
	if !f.need(uint64(n)) {
		return ""
	}
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

// f64s decodes a float vector into dst (grown as needed, reused
// otherwise) so steady-state steps do not reallocate.
func (f *frameReader) f64s(dst []float64) []float64 {
	n32 := f.u32()
	if !f.need(8 * uint64(n32)) {
		return nil
	}
	n := int(n32)
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
// travels as JSON. Encoding it cannot fail: a spec is strings, bools
// and ints.

func encodeSpec(s GroupSpec) []byte {
	b, _ := json.Marshal(s)
	return b
}

// decodeSpec is the parent's side of a trust boundary: the engine sizes
// its reduce vectors and slices them by what the spec declares, and
// loops over its steps, so a spec that does not describe one workload —
// no phase, a group per phase missing, a group longer than the
// parameter set, a vector longer than any frame could carry, a negative
// step count — is refused here.
func decodeSpec(payload []byte) (s GroupSpec, err error) {
	if err = json.Unmarshal(payload, &s); err != nil {
		// Where int is 32 bits, a length int cannot hold fails the
		// decode. Read at 64 bits, it gets the refusal it gets where
		// int is 64 bits.
		var l specLens
		if json.Unmarshal(payload, &l) == nil && !l.fitInt() {
			if lerr := checkSpec(s.Phases, l.GroupLen, l.ParamLen, l.BufLen, l.Steps); lerr != nil {
				return GroupSpec{}, lerr
			}
		}
		return GroupSpec{}, fmt.Errorf("dist: decoding spec: %v", err)
	}
	if err = checkSpec(s.Phases, s.GroupLen, s.ParamLen, s.BufLen, s.Steps); err != nil {
		return GroupSpec{}, err
	}
	return s, nil
}

// specLens are a spec's lengths decoded at 64 bits.
type specLens struct {
	GroupLen []int64 `json:"group_len"`
	ParamLen int64   `json:"param_len"`
	BufLen   int64   `json:"buf_len"`
	Steps    int64   `json:"steps"`
}

// fitInt reports whether every length converts to int unchanged.
func (l specLens) fitInt() bool {
	fits := func(v int64) bool { return int64(int(v)) == v }
	for _, n := range l.GroupLen {
		if !fits(n) {
			return false
		}
	}
	return fits(l.ParamLen) && fits(l.BufLen) && fits(l.Steps)
}

// checkSpec refuses lengths that do not describe a workload. Every
// length it lets through fits an int: a vector length is at most a
// frame's floats, and a step count must convert unchanged.
func checkSpec[T int | int64](phases []models.PhaseSpec, groupLen []T, paramLen, bufLen, steps T) error {
	const maxVec = maxFrame / 8
	if len(phases) == 0 || len(groupLen) != len(phases) || paramLen > maxVec || bufLen < 0 || bufLen > maxVec || steps < 0 || int64(int(steps)) != int64(steps) {
		return fmt.Errorf("dist: spec: %d phases, %d reduce groups, %d params, %d buffers, %d steps do not describe a workload",
			len(phases), len(groupLen), paramLen, bufLen, steps)
	}
	for p, n := range groupLen {
		if n < 0 || n > paramLen {
			return fmt.Errorf("dist: spec: phase %q reduces %d of %d params", phases[p].Name, n, paramLen)
		}
	}
	return nil
}

// encodePhaseOut appends out's compute-reply body to b.
func encodePhaseOut(b []byte, out PhaseOut) []byte {
	b = appendU32(b, uint32(out.Total))
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
	out.Total = fr.count()
	n32 := fr.u32()
	if fr.err == nil && uint64(n32) > uint64(len(fr.b)/grainMin) {
		fr.err = fmt.Errorf("dist: phase-out frame declares %d grains in %d bytes", n32, len(fr.b))
	}
	if fr.err != nil {
		return fr.err
	}
	n := int(n32)
	// Slots past len but inside cap still hold the vectors a longer
	// decode left there: extend over them before appending new ones.
	grains := out.Grains[:cap(out.Grains)]
	if len(grains) < n {
		grains = append(grains, make([]GrainOut, n-len(grains))...)
	}
	out.Grains = grains[:n]
	for i := 0; i < n; i++ {
		g := &out.Grains[i]
		g.Grain = fr.count()
		g.N = fr.count()
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
