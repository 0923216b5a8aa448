package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"

	"aibench/internal/models"
	"aibench/internal/telemetry"
)

// seedSpec and seedPhaseOut are a spec reply and a phase-0 compute
// reply as a two-phase worker child would send them.
var (
	seedSpec = GroupSpec{
		Phases:   []models.PhaseSpec{{Name: "train", Report: true}, {Name: "distill"}},
		GroupLen: []int{3, 2}, ParamLen: 128, BufLen: 1, Steps: 1,
	}
	seedPhaseOut = PhaseOut{Total: 4, Grains: []GrainOut{{Grain: 1, N: 8, Loss: 0.25, Grad: []float64{1, -2, 3.5}, Buf: []float64{0.5}}}}
)

// frameBytes is one frame exactly as writeFrame puts it on the pipe.
func frameBytes(tb testing.TB, typ byte, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&buf), typ, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame hardens the process backend's trust boundary: readFrame
// takes whatever bytes a child's stdout delivers, so a corrupt length
// prefix, a zero length, or a payload cut short must come back as an
// error — never a panic, and never an allocation sized by the prefix
// alone. A frame that does decode must re-encode to the bytes consumed.
// Read as a stream of frames through one reused buffer, as a peer reads
// its pipe, every frame must equal the same frame read through a fresh
// buffer: no byte of an earlier, longer frame may survive into a later
// one.
func FuzzReadFrame(f *testing.F) {
	spec, out := encodeSpec(seedSpec), seedPhaseOut
	hello := encodeHello(hello{BenchID: "DC-AI-C16", Kernel: "blocked", Seed: 42, Rank: 1, Workers: 2, Counters: true})
	for _, fr := range []struct {
		typ     byte
		payload []byte
	}{
		{frameHello, hello},
		{frameBeginEpoch, nil},
		{frameCompute, appendU32(nil, 1)},
		{frameApply, appendF64s(appendF64s(appendU32(nil, 0), []float64{1, 2, 3}), []float64{4})},
		{frameQuality, nil},
		{frameClose, nil},
		{frameSpec, spec},
		{framePhaseOut, encodePhaseOut(nil, out)},
		{frameQualityOut, appendF64(nil, 0.75)},
		{frameClosed, []byte(`[{"op":"matmul","calls":4,"flops":1024}]`)},
		{frameError, appendStr(nil, "replica gave up")},
	} {
		f.Add(frameBytes(f, fr.typ, fr.payload))
	}
	whole := frameBytes(f, framePhaseOut, encodePhaseOut(nil, out))
	f.Add(whole[:len(whole)-3])                                       // truncated payload
	f.Add([]byte{0, 0, 0, 0, frameSpec})                              // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameSpec, 1, 2})            // prefix past maxFrame
	f.Add([]byte{0x00, 0x00, 0x00, 0x40, frameSpec, 1, 2})            // prefix = maxFrame, 3 bytes behind it
	f.Add(append(frameBytes(f, frameQuality, nil), whole...))         // two frames back to back
	f.Add(slices.Concat(whole, frameBytes(f, frameError, []byte{7}))) // a longer frame, then a shorter one
	f.Add(slices.Concat(whole, whole[:len(whole)-3]))                 // a frame, then the same one cut short
	f.Add([]byte{5, 0})                                               // short prefix
	f.Add(frameBytes(f, 0, nil))                                      // type zero: no request, no reply
	f.Add(frameBytes(f, 0xff, appendStr(nil, "unlisted")))            // a type replyTo does not list

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)), new([]byte))
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		if again := frameBytes(t, typ, payload); !bytes.HasPrefix(data, again) {
			t.Fatalf("frame type %d with %d payload bytes re-encodes to %x, input began %x", typ, len(payload), again, data[:min(len(data), len(again))])
		}

		reused, fresh := bufio.NewReader(bytes.NewReader(data)), bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for i := 0; ; i++ {
			typ, payload, err := readFrame(reused, &buf)
			wantTyp, want, wantErr := readFrame(fresh, new([]byte))
			if (err == nil) != (wantErr == nil) || typ != wantTyp || !bytes.Equal(payload, want) {
				t.Fatalf("frame %d through the reused buffer: type %d, payload %x, err %v; through a fresh one: type %d, payload %x, err %v",
					i, typ, payload, err, wantTyp, want, wantErr)
			}
			if err != nil {
				return
			}
		}
	})
}

// TestReadFrameOversizedPrefix: the largest prefix readFrame accepts,
// followed by nothing, is a truncated frame that cost one chunk of
// memory, not the gigabyte it declared — into a fresh buffer, and into
// one a longer frame already grew, which it reads into without growing
// it by the declared length.
func TestReadFrameOversizedPrefix(t *testing.T) {
	prefix := binary.LittleEndian.AppendUint32(nil, maxFrame)
	grown := make([]byte, 0, 3*frameChunk)
	for _, c := range []struct {
		name string
		buf  *[]byte
	}{{"fresh buffer", new([]byte)}, {"grown buffer", &grown}} {
		r := bufio.NewReader(bytes.NewReader(prefix))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := readFrame(r, c.buf)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated frame") {
			t.Fatalf("%s: err = %v, want truncated frame", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
			t.Fatalf("%s: allocated %d bytes for a frame that delivered none, want < 4 MiB", c.name, got)
		}
	}
}

// TestReadFrameMultiChunk round-trips a frame longer than frameChunk,
// which takes the grow-as-bytes-arrive path, and leaves the reader at
// the next frame.
func TestReadFrameMultiChunk(t *testing.T) {
	payload := make([]byte, 3*frameChunk+5)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	stream := append(frameBytes(t, frameApply, payload), frameBytes(t, frameQuality, nil)...)
	r := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	typ, got, err := readFrame(r, &buf)
	if err != nil || typ != frameApply || !bytes.Equal(got, payload) {
		t.Fatalf("first frame: type %d, %d payload bytes, err %v", typ, len(got), err)
	}
	if typ, got, err = readFrame(r, &buf); err != nil || typ != frameQuality || len(got) != 0 {
		t.Fatalf("second frame: type %d, %d payload bytes, err %v", typ, len(got), err)
	}
}

// binarySpecCrasher is the 22-byte spec reply that killed the parent
// when specs travelled in the hand-rolled binary codec: an empty name, a
// target, a flag, then a phase count of 0xFFFFFFFF the decoder sized a
// slice by — fatal error: runtime: out of memory, which nothing
// recovers.
var binarySpecCrasher = append(appendF64(appendStr(nil, ""), 0.5), 1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0)

// hostileSpecs are spec replies a well-behaved child never sends: each
// would have the engine size or slice a vector by a length that
// describes no workload.
var hostileSpecs = map[string]string{
	string(binarySpecCrasher):                                                                                 "decoding spec",
	`{"phases":[],"group_len":[],"param_len":4,"buf_len":0}`:                                                  "do not describe a workload",
	`{"phases":[{"name":"a","report":true}],"group_len":[],"param_len":4,"buf_len":0}`:                        "do not describe a workload",
	`{"phases":[{"name":"a","report":true}],"group_len":[4,4],"param_len":4,"buf_len":0}`:                     "do not describe a workload",
	`{"phases":[{"name":"a","report":true}],"group_len":[4],"param_len":4,"buf_len":-1}`:                      "do not describe a workload",
	`{"phases":[{"name":"a","report":true}],"group_len":[4],"param_len":4,"buf_len":1000000000000}`:           "do not describe a workload",
	`{"phases":[{"name":"a","report":true}],"group_len":[5],"param_len":4,"buf_len":0}`:                       `phase "a" reduces 5 of 4 params`,
	`{"phases":[{"name":"a","report":true}],"group_len":[-1],"param_len":4,"buf_len":0}`:                      `phase "a" reduces -1 of 4 params`,
	`{"phases":[{"name":"a","report":true}],"group_len":[0],"param_len":-4,"buf_len":0}`:                      `phase "a" reduces 0 of -4 params`,
	`{"phases":[{"name":"a","report":true}],"group_len":[900000000000],"param_len":900000000000,"buf_len":0}`: "do not describe a workload",
	`{"phases":[{"name":"a","report":true}],"group_len":[4],"param_len":4,"buf_len":0,"steps":-1}`:            "-1 steps do not describe a workload",
}

// FuzzSpecFrame hardens the first payload the parent decodes from a
// child: decodeSpec must turn any spec reply into an error or a spec
// the engine can size and slice its reduce vectors by — at least one
// phase, one reduce group per phase, every group within the parameter
// set, no vector longer than a frame could carry, no negative step
// count — never a panic, and
// never an allocation sized by a number the payload merely declares. A
// spec it lets through survives an encode/decode round trip unchanged.
func FuzzSpecFrame(f *testing.F) {
	whole := encodeSpec(seedSpec)
	f.Add(whole)
	f.Add(whole[:len(whole)-4]) // cut short
	for body := range hostileSpecs {
		f.Add([]byte(body))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := decodeSpec(payload)
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		if len(s.Phases) == 0 || len(s.GroupLen) != len(s.Phases) || len(s.Phases) > len(payload) || s.BufLen < 0 || s.BufLen > maxFrame/8 || s.ParamLen > maxFrame/8 || s.Steps < 0 {
			t.Fatalf("decodeSpec let %+v through", s)
		}
		for _, n := range s.GroupLen {
			if n < 0 || n > s.ParamLen {
				t.Fatalf("decodeSpec let a %d-float group of %d params through: %+v", n, s.ParamLen, s)
			}
		}
		if again, err := decodeSpec(encodeSpec(s)); err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("spec %+v re-decodes as %+v, err %v", s, again, err)
		}
	})
}

// hostilePhaseOuts are compute replies to seedSpec's phase 0 that a
// well-behaved child never sends.
func hostilePhaseOuts() map[string][]byte {
	short, long, noBuf := seedPhaseOut, seedPhaseOut, seedPhaseOut
	short.Grains = []GrainOut{{Grain: 1, N: 8, Loss: 0.25, Grad: []float64{1, -2}, Buf: []float64{0.5}}}
	long.Grains = []GrainOut{{Grain: 1, N: 8, Loss: 0.25, Grad: []float64{1, -2, 3.5, 4}, Buf: []float64{0.5}}}
	noBuf.Grains = []GrainOut{{Grain: 1, N: 8, Loss: 0.25, Grad: []float64{1, -2, 3.5}}}
	whole := encodePhaseOut(nil, seedPhaseOut)
	return map[string][]byte{
		"grain 1 carries 2 gradient and 1 buffer floats": encodePhaseOut(nil, short),
		"grain 1 carries 4 gradient and 1 buffer floats": encodePhaseOut(nil, long),
		"grain 1 carries 3 gradient and 0 buffer floats": encodePhaseOut(nil, noBuf),
		"declares 4294967295 grains in 0 bytes":          appendU32(appendU32(nil, 4), 0xffffffff),
		"declares 3 grains in 56 bytes":                  append(appendU32(appendU32(nil, 4), 3), whole[8:]...),
		"truncated frame payload":                        whole[:len(whole)-3],
	}
}

// FuzzPhaseOutFrame hardens the payload the parent decodes every step:
// decodePhaseOut must turn any compute reply into an error or grains
// whose gradient and buffer vectors have exactly the lengths the
// group's spec declared — what the engine's reduce indexes by — never a
// panic, and never more grains than the bytes that arrived can hold.
// It decodes into an out a longer decode of another phase left behind,
// as a rank's out is reused across phases and steps: it must accept and
// refuse what a decode into a fresh one does, and what it accepts must
// re-encode to the bytes it read.
func FuzzPhaseOutFrame(f *testing.F) {
	f.Add(encodePhaseOut(nil, seedPhaseOut), uint16(3), uint16(1))
	f.Add(encodePhaseOut(nil, PhaseOut{Total: 2}), uint16(0), uint16(0))
	for _, body := range hostilePhaseOuts() {
		f.Add(body, uint16(3), uint16(1))
	}
	f.Add([]byte{}, uint16(0), uint16(0))

	longer := encodePhaseOut(nil, PhaseOut{Total: 3, Grains: []GrainOut{
		{Grain: 0, N: 2, Grad: []float64{9, 9, 9, 9, 9}, Buf: []float64{9, 9}},
		{Grain: 1, N: 2, Grad: []float64{8, 8, 8, 8, 8}, Buf: []float64{8, 8}},
		{Grain: 2, N: 2, Grad: []float64{7, 7, 7, 7, 7}, Buf: []float64{7, 7}},
	}})

	f.Fuzz(func(t *testing.T, payload []byte, gradLen, bufLen uint16) {
		var out, fresh PhaseOut
		if err := decodePhaseOut(longer, &out, 5, 2); err != nil {
			t.Fatal(err)
		}
		err := decodePhaseOut(payload, &out, int(gradLen), int(bufLen))
		if ferr := decodePhaseOut(payload, &fresh, int(gradLen), int(bufLen)); (err == nil) != (ferr == nil) {
			t.Fatalf("decoding over a longer out: err %v; into a fresh one: err %v", err, ferr)
		}
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		if len(out.Grains)*grainMin > len(payload) {
			t.Fatalf("%d grains decoded from %d bytes", len(out.Grains), len(payload))
		}
		for _, g := range out.Grains {
			if len(g.Grad) != int(gradLen) || len(g.Buf) != int(bufLen) {
				t.Fatalf("decodePhaseOut let grain %+v through under lengths %d/%d", g, gradLen, bufLen)
			}
		}
		if again := encodePhaseOut(nil, out); !bytes.Equal(again, payload[:len(again)]) {
			t.Fatalf("phase-out re-encodes to %x, input began %x", again, payload[:len(again)])
		}
	})
}

// cannedGroup is a one-child process group whose child already said
// everything in replies and hears nothing: the parent's half of the
// protocol, run against bytes a test chose.
func cannedGroup(spec GroupSpec, replies ...[]byte) *processGroup {
	return cannedRanks(spec, bytes.Join(replies, nil))
}

// cannedRanks is cannedGroup with one child per stream of replies.
func cannedRanks(spec GroupSpec, streams ...[]byte) *processGroup {
	g := &processGroup{spec: spec, outs: make([]PhaseOut, len(streams)), quals: make([]float64, len(streams))}
	for _, replies := range streams {
		g.procs = append(g.procs, &workerProc{
			in: nopWriteCloser{io.Discard},
			bw: bufio.NewWriter(io.Discard),
			br: bufio.NewReader(bytes.NewReader(replies)),
		})
	}
	return g
}

// exitingChild is a real child process that exits on its own, for the
// paths that kill or reap one.
func exitingChild(tb testing.TB) *exec.Cmd {
	tb.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	if err := cmd.Start(); err != nil {
		tb.Fatal(err)
	}
	return cmd
}

// TestHandshakeRefusesHostileSpec: a child whose spec reply describes
// no workload — the old codec's out-of-memory crasher first among them —
// fails its group's open with the reason and the replica's rank; the
// parent is alive to say so.
func TestHandshakeRefusesHostileSpec(t *testing.T) {
	for body, want := range hostileSpecs {
		err := cannedGroup(GroupSpec{}, frameBytes(t, frameSpec, []byte(body))).handshake(hello{BenchID: "DC-AI-C16"})
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "replica 0") {
			t.Errorf("spec reply %q: err = %v, want replica 0 refused for %q", body, err, want)
		}
	}
	g := cannedGroup(GroupSpec{}, frameBytes(t, frameSpec, encodeSpec(seedSpec)))
	if err := g.handshake(hello{BenchID: "DC-AI-C16"}); err != nil || !reflect.DeepEqual(g.spec, seedSpec) {
		t.Errorf("honest spec reply opened as %+v, err %v; want %+v", g.spec, err, seedSpec)
	}
}

// TestEngineRefusesHostilePhaseOut: a child whose compute reply carries
// a gradient or buffer vector of the wrong length, or more grains than
// bytes, fails its benchmark's epoch with the reason and the replica's
// rank — it used to reach the all-reduce and panic there with an index
// out of range — and an honest reply that owns up to one grain of four
// is refused before the engine sizes anything by the four.
func TestEngineRefusesHostilePhaseOut(t *testing.T) {
	epoch := func(phaseOut []byte) error {
		g := cannedGroup(seedSpec, frameBytes(t, framePhaseOut, phaseOut))
		eng, err := New(context.Background(), "canned", nil, 1, cannedBackend{g})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.TrainEpoch()
		return err
	}
	for want, body := range hostilePhaseOuts() {
		if err := epoch(body); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "replica 0") {
			t.Errorf("compute reply %x: err = %v, want replica 0 refused for %q", body, err, want)
		}
	}
	if err := epoch(encodePhaseOut(nil, seedPhaseOut)); err == nil || !strings.Contains(err.Error(), "reported 1 of the phase's 4 grains") {
		t.Errorf("one grain of four: err = %v, want the count refused", err)
	}
}

// TestHandshakeRefusesDisagreeingSteps: steps per epoch are a fact of
// the instance, so ranks whose specs declare different counts fail the
// open instead of training out of lockstep.
func TestHandshakeRefusesDisagreeingSteps(t *testing.T) {
	other := seedSpec
	other.Steps = 2
	g := cannedRanks(GroupSpec{}, frameBytes(t, frameSpec, encodeSpec(seedSpec)), frameBytes(t, frameSpec, encodeSpec(other)))
	err := g.handshake(hello{BenchID: "DC-AI-C16"})
	if err == nil || !strings.Contains(err.Error(), "replica 1") || !strings.Contains(err.Error(), "2 steps") {
		t.Fatalf("ranks declaring 1 and 2 steps: err = %v, want replica 1 refused for its 2 steps", err)
	}
}

// twoGrains is an honest, complete reply to seedSpec's phase 0 from a
// group of one.
var twoGrains = PhaseOut{Total: 2, Grains: []GrainOut{
	{Grain: 0, N: 4, Loss: 0.5, Grad: []float64{1, 2, 3}, Buf: []float64{0.25}},
	{Grain: 1, N: 4, Loss: 0.75, Grad: []float64{-1, 0, 1}, Buf: []float64{0.5}},
}}

// TestDecodePhaseOutKeepsGrainVectors: a rank's out is reused across
// phases, and a phase may hand the rank no grain at all. When its grain
// count falls and rises again, the grains past the short decode keep
// the vectors they had — no step reallocates them — and a reply that
// carries the wrong lengths is still refused, however long the stale
// vectors in those slots are.
func TestDecodePhaseOutKeepsGrainVectors(t *testing.T) {
	var out PhaseOut
	decode := func(payload []byte) error { return decodePhaseOut(payload, &out, 3, 1) }
	if err := decode(encodePhaseOut(nil, twoGrains)); err != nil {
		t.Fatal(err)
	}
	grad, buf := &out.Grains[1].Grad[0], &out.Grains[1].Buf[0]
	if err := decode(encodePhaseOut(nil, PhaseOut{Total: 2})); err != nil || len(out.Grains) != 0 {
		t.Fatalf("no grain: %d grains, err %v", len(out.Grains), err)
	}
	if err := decode(encodePhaseOut(nil, twoGrains)); err != nil {
		t.Fatal(err)
	}
	if &out.Grains[1].Grad[0] != grad || &out.Grains[1].Buf[0] != buf {
		t.Error("grain 1 lost its vectors to a decode that handed the rank no grain")
	}
	if !reflect.DeepEqual(out, twoGrains) {
		t.Errorf("decoded %+v, want %+v", out, twoGrains)
	}

	short := PhaseOut{Total: 2, Grains: []GrainOut{twoGrains.Grains[0], {Grain: 1, N: 4, Grad: []float64{1, 2}, Buf: []float64{0}}}}
	if err := decode(encodePhaseOut(nil, PhaseOut{Total: 2})); err != nil {
		t.Fatal(err)
	}
	if err := decode(encodePhaseOut(nil, short)); err == nil || !strings.Contains(err.Error(), "grain 1 carries 2 gradient and 1 buffer floats") {
		t.Fatalf("a short gradient over a full-length stale one: err = %v, want it refused", err)
	}
}

// loopReader serves its bytes over and over, so a warmed bufio.Reader
// over it reads the same frame forever.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestFramePathAllocatesNothing pins the steady state of both ends of a
// pipe: once warmed, reading a frame into a peer's buffer, encoding a
// compute reply into a reused body and writing a frame allocate
// nothing.
func TestFramePathAllocatesNothing(t *testing.T) {
	r := bufio.NewReader(&loopReader{b: frameBytes(t, framePhaseOut, encodePhaseOut(nil, twoGrains))})
	var rbuf, wbuf []byte
	w := bufio.NewWriter(io.Discard)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"readFrame", func() {
			if _, _, err := readFrame(r, &rbuf); err != nil {
				t.Fatal(err)
			}
		}},
		{"encodePhaseOut", func() { wbuf = encodePhaseOut(wbuf[:0], twoGrains) }},
		{"writeFrame", func() {
			if err := writeFrame(w, framePhaseOut, wbuf); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		c.call()
		if allocs := testing.AllocsPerRun(100, c.call); allocs != 0 {
			t.Errorf("%s: %v allocations per warmed call, want 0", c.name, allocs)
		}
	}
}

// TestOneWayFailureSurfacesAtTheNextCollective: apply is one-way, so a
// child that gives up in it — an error frame where no reply is owed —
// fails the epoch at the next compute with its rank and its own words,
// and a child that answers a one-way request anyway (a stale ack, a
// reply to nothing) is refused as out of sequence rather than read as
// the next phase's output.
func TestOneWayFailureSurfacesAtTheNextCollective(t *testing.T) {
	epoch := func(afterApply ...[]byte) error {
		replies := append([][]byte{frameBytes(t, framePhaseOut, encodePhaseOut(nil, twoGrains))}, afterApply...)
		eng, err := New(context.Background(), "canned", nil, 1, cannedBackend{cannedGroup(seedSpec, replies...)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.TrainEpoch()
		return err
	}
	err := epoch(frameBytes(t, frameError, appendStr(nil, "replica panicked: apply blew up")))
	if err == nil || !strings.Contains(err.Error(), "replica 0: replica panicked: apply blew up") {
		t.Errorf("error frame after apply: err = %v, want replica 0 failed with the child's message", err)
	}
	next := frameBytes(t, framePhaseOut, encodePhaseOut(nil, PhaseOut{Total: 1, Grains: []GrainOut{{Grain: 0, N: 1, Grad: []float64{1, 2}, Buf: []float64{0}}}}))
	if err := epoch(next); err != nil {
		t.Fatalf("honest replies: %v", err)
	}
	for name, stale := range map[string][]byte{
		"empty ack":     frameBytes(t, frameSpec, nil),
		"quality reply": frameBytes(t, frameQualityOut, appendF64(nil, 1)),
		"unlisted type": frameBytes(t, 0xff, nil),
	} {
		if err := epoch(stale, next); err == nil || !strings.Contains(err.Error(), "replica 0") || !strings.Contains(err.Error(), "out of sequence") {
			t.Errorf("%s after apply: err = %v, want replica 0 refused as out of sequence", name, err)
		}
	}
}

// brokenPipe is the write end of a pipe whose reader is gone.
type brokenPipe struct{}

func (brokenPipe) Write([]byte) (int, error) { return 0, syscall.EPIPE }

// TestWriteToGoneChildReportsWhatItLeft: a write fails only when the
// child is gone, so a one-way request — or the close — written to one
// reports what the child left in its pipe: its error frame, or that it
// exited mid-run. Never the pipe's own "broken pipe".
func TestWriteToGoneChildReportsWhatItLeft(t *testing.T) {
	for _, c := range []struct {
		name, want string
		left       []byte
	}{
		{"killed", "replica 0 exited mid-run (killed or crashed)", nil},
		{"killed mid-reply", "replica 0 exited mid-run (killed or crashed)", frameBytes(t, frameQualityOut, appendF64(nil, 1))[:7]},
		{"gave up", "replica 0: replica panicked: out of memory", frameBytes(t, frameError, appendStr(nil, "replica panicked: out of memory"))},
		{"gave up after a reply", "replica 0: bad apply frame (phase 9)",
			bytes.Join([][]byte{frameBytes(t, frameQualityOut, appendF64(nil, 1)), frameBytes(t, frameError, appendStr(nil, "bad apply frame (phase 9)"))}, nil)},
	} {
		for name, write := range map[string]func(g *processGroup) error{
			"begin-epoch": (*processGroup).BeginEpoch,
			"apply":       func(g *processGroup) error { return g.ApplyPhase(0, []float64{1, 2, 3}, []float64{0}) },
			"close":       (*processGroup).Close,
		} {
			g := cannedGroup(seedSpec, c.left)
			g.procs[0].cmd = exitingChild(t)
			g.procs[0].bw = bufio.NewWriter(brokenPipe{})
			err := write(g)
			if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "broken pipe") {
				t.Errorf("%s, %s: err = %v, want %q", c.name, name, err, c.want)
			}
			if _, qerr := g.Quality(); qerr == nil {
				t.Errorf("%s, %s: the group is still up after losing its child", c.name, name)
			}
			if cerr := g.Close(); cerr != nil && name != "close" {
				t.Errorf("%s, %s: closing the broken group: %v", c.name, name, cerr)
			}
		}
	}
}

// cannedBackend opens the group it was given.
type cannedBackend struct{ g Group }

func (cannedBackend) Name() string { return "canned" }
func (cannedBackend) Workers() int { return 1 }
func (b cannedBackend) Open(context.Context, string, models.Factory, int64) (Group, error) {
	return b.g, nil
}

// hostileClosed are close-reply bodies a well-behaved child never
// sends: each would move the parent's counters somewhere no run of the
// plan could.
var hostileClosed = map[string]string{
	`[{"op":"matmul","calls":-3,"flops":10}]`:                                   "negative",
	`[{"op":"matmul","calls":3,"flops":-9223372036854775808}]`:                  "negative",
	`[{"op":"conv2d","calls":1,"flops":1},{"op":"conv2d","calls":1,"flops":1}]`: "twice",
	`[{"op":"warp","calls":1},{"op":"tmatmul"},{"op":"warp","calls":1}]`:        "twice",
	`[{"op":"matmul","calls":"3"}]`:                                             "decoding counters",
	`{"epochs":2}`:                                                              "decoding counters",
}

// FuzzClosedFrame hardens the last thing the parent does with bytes
// from a child's pipe: decodeClosed must turn any close-reply body into
// kernel-op counts or an error — never a panic — and counts it lets
// through must be ones Merge can add as they stand: no negative total,
// no op listed twice, and unchanged by an encode/decode round trip.
// Merged into fresh counters, nothing they name can come out negative
// and nothing this binary does not know can come out at all.
func FuzzClosedFrame(f *testing.F) {
	f.Add(encodeClosed(nil))
	f.Add(encodeClosed([]telemetry.OpCount{{Op: "matmul", Calls: 4, FLOPs: 1024}, {Op: "conv2d", Calls: 1, FLOPs: 1 << 40}}))
	f.Add(encodeClosed([]telemetry.OpCount{{Op: "from-a-newer-worker", Calls: 9, FLOPs: 9}}))
	for body := range hostileClosed {
		f.Add([]byte(body))
	}
	whole := encodeClosed([]telemetry.OpCount{{Op: "tmatmul", Calls: 2, FLOPs: 8}})
	f.Add(whole[:len(whole)-2]) // cut short
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		ops, err := decodeClosed(payload)
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		if again, err := decodeClosed(encodeClosed(ops)); err != nil || !reflect.DeepEqual(again, ops) {
			t.Fatalf("counts %+v re-decode as %+v, err %v", ops, again, err)
		}
		var c telemetry.Counters
		c.Merge(ops)
		sent := map[string]bool{}
		for _, op := range ops {
			if op.Calls < 0 || op.FLOPs < 0 || sent[op.Op] {
				t.Fatalf("decodeClosed let %+v through in %+v", op, ops)
			}
			sent[op.Op] = true
		}
		for _, op := range c.Snapshot().Kernel {
			if !sent[op.Op] || op.Calls <= 0 || op.FLOPs < 0 {
				t.Fatalf("merging %+v produced op %+v", ops, op)
			}
		}
	})
}

// TestCloseRefusesHostileCounters: a child whose close reply does not
// read as kernel-op counts fails its group with the reason and moves
// none of the run's counters; an honest reply is merged.
func TestCloseRefusesHostileCounters(t *testing.T) {
	closeWith := func(body string) (telemetry.CounterSet, error) {
		// Any child that exits on its own will do: Close only reaps it.
		var counters telemetry.Counters
		g := &processGroup{counters: &counters, procs: []*workerProc{{
			cmd: exitingChild(t),
			in:  nopWriteCloser{io.Discard},
			bw:  bufio.NewWriter(io.Discard),
			br:  bufio.NewReader(bytes.NewReader(frameBytes(t, frameClosed, []byte(body)))),
		}}}
		err := g.Close()
		return counters.Snapshot(), err
	}
	for body, want := range hostileClosed {
		got, err := closeWith(body)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "replica 0") {
			t.Errorf("close reply %s: err = %v, want replica 0 refused for %q", body, err, want)
		}
		if !reflect.DeepEqual(got, telemetry.CounterSet{}) {
			t.Errorf("close reply %s was refused but still counted %+v", body, got)
		}
	}
	got, err := closeWith(`[{"op":"tmatmul","calls":2,"flops":64},{"op":"warp","calls":1,"flops":1}]`)
	want := telemetry.CounterSet{Kernel: []telemetry.OpCount{{Op: "tmatmul", Calls: 2, FLOPs: 64}}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("honest close reply merged as %+v, err %v; want %+v", got, err, want)
	}
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }
