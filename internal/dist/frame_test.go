package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aibench/internal/models"
	"aibench/internal/telemetry"
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
func FuzzReadFrame(f *testing.F) {
	spec := GroupSpec{
		Name: "img-cls", Target: 0.9, LowerIsBetter: true,
		Phases:   []models.PhaseSpec{{Name: "train", Report: true}, {Name: "distill"}},
		GroupLen: []int{3, 2}, ParamLen: 128, BufLen: 8,
	}
	out := PhaseOut{Total: 4, Grains: []GrainOut{{Grain: 1, N: 8, Loss: 0.25, Grad: []float64{1, -2, 3.5}, Buf: []float64{0.5}}}}
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
		{frameSpec, encodeSpec(spec)},
		{frameEpochSteps, appendU32(nil, 10)},
		{framePhaseOut, encodePhaseOut(out)},
		{frameApplied, nil},
		{frameQualityOut, appendF64(nil, 0.75)},
		{frameClosed, []byte(`[{"op":"matmul","calls":4,"flops":1024}]`)},
		{frameError, appendStr(nil, "replica gave up")},
	} {
		f.Add(frameBytes(f, fr.typ, fr.payload))
	}
	whole := frameBytes(f, framePhaseOut, encodePhaseOut(out))
	f.Add(whole[:len(whole)-3])                               // truncated payload
	f.Add([]byte{0, 0, 0, 0, frameApplied})                   // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameSpec, 1, 2})    // prefix past maxFrame
	f.Add([]byte{0x00, 0x00, 0x00, 0x40, frameSpec, 1, 2})    // prefix = maxFrame, 3 bytes behind it
	f.Add(append(frameBytes(f, frameQuality, nil), whole...)) // two frames back to back
	f.Add([]byte{5, 0})                                       // short prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		if again := frameBytes(t, typ, payload); !bytes.HasPrefix(data, again) {
			t.Fatalf("frame type %d with %d payload bytes re-encodes to %x, input began %x", typ, len(payload), again, data[:min(len(data), len(again))])
		}
	})
}

// TestReadFrameOversizedPrefix: the largest prefix readFrame accepts,
// followed by nothing, is a truncated frame that cost one chunk of
// memory, not the gigabyte it declared.
func TestReadFrameOversizedPrefix(t *testing.T) {
	prefix := binary.LittleEndian.AppendUint32(nil, maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bufio.NewReader(bytes.NewReader(prefix)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("err = %v, want truncated frame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("allocated %d bytes for a frame that delivered none, want < 4 MiB", got)
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
	stream := append(frameBytes(t, frameApply, payload), frameBytes(t, frameApplied, nil)...)
	r := bufio.NewReader(bytes.NewReader(stream))
	typ, got, err := readFrame(r)
	if err != nil || typ != frameApply || !bytes.Equal(got, payload) {
		t.Fatalf("first frame: type %d, %d payload bytes, err %v", typ, len(got), err)
	}
	if typ, got, err = readFrame(r); err != nil || typ != frameApplied || len(got) != 0 {
		t.Fatalf("second frame: type %d, %d payload bytes, err %v", typ, len(got), err)
	}
}

// hostileClosed are close-reply bodies a well-behaved child never
// sends: each would move the parent's counters somewhere no run of the
// plan could.
var hostileClosed = map[string]string{
	`[{"op":"matmul","calls":-3,"flops":10}]`:                                   "negative",
	`[{"op":"matmul","calls":3,"flops":-9223372036854775808}]`:                  "negative",
	`[{"op":"conv2d","calls":1,"flops":1},{"op":"conv2d","calls":1,"flops":1}]`: "twice",
	`[{"op":"warp","calls":1},{"op":"matvec"},{"op":"warp","calls":1}]`:         "twice",
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
	whole := encodeClosed([]telemetry.OpCount{{Op: "outer", Calls: 2, FLOPs: 8}})
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
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var counters telemetry.Counters
		g := &processGroup{counters: &counters, procs: []*workerProc{{
			cmd: cmd,
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
	got, err := closeWith(`[{"op":"matvec","calls":2,"flops":64},{"op":"warp","calls":1,"flops":1}]`)
	want := telemetry.CounterSet{Kernel: []telemetry.OpCount{{Op: "matvec", Calls: 2, FLOPs: 64}}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("honest close reply merged as %+v, err %v; want %+v", got, err, want)
	}
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }
