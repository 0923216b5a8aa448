package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"aibench/internal/models"
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
		{frameClosed, appendStr(nil, `{"epochs":2}`)},
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
