package dist

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aibench/internal/models"
	"aibench/internal/telemetry"
	"aibench/internal/tensor"
	"aibench/internal/tensor/kerneltest"
)

// FuzzWorkerHello hardens the first thing a worker child does with
// bytes from its pipe: decodeHello must turn any payload into a hello
// or an error — never a panic — a hello that decodes must survive an
// encode/decode round trip unchanged, and resolving the kernel it names
// must reject what it cannot build instead of panicking on it.
func FuzzWorkerHello(f *testing.F) {
	for _, h := range []hello{
		{BenchID: "DC-AI-C16", Kernel: "blocked", Seed: 42, Rank: 1, Workers: 2, Counters: true},
		{BenchID: "DC-AI-C1", Kernel: "blocked", Seed: -7, Workers: 1},
		{BenchID: "DC-AI-C1", Kernel: "naive", Rank: -1, Workers: -3},
		{BenchID: "DC-AI-C1", Kernel: "tuned"},
		{BenchID: "", Kernel: "cuda"},
	} {
		f.Add(encodeHello(h))
	}
	whole := encodeHello(hello{BenchID: "DC-AI-C16", Kernel: "naive", Workers: 2})
	f.Add(whole[:len(whole)-6]) // cut short
	f.Add([]byte(`{"kernel":"blocked","seed":1e99}`))
	f.Add([]byte(`{"kernel":["blocked"],"rank":-9223372036854775808}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := decodeHello(payload)
		if err != nil {
			return // rejecting the input is fine; panicking is not
		}
		again, err := decodeHello(encodeHello(h))
		if err != nil || !reflect.DeepEqual(again, h) {
			t.Fatalf("hello %+v re-decodes as %+v, err %v", h, again, err)
		}
		if k, err := tensor.ResolveKernels(h.Kernel); err == nil && k.Name() != h.Kernel {
			t.Fatalf("hello kernel %q resolved to %q", h.Kernel, k.Name())
		}
	})
}

// TestWorkerReplicaRunsUnderTheSentKernel: the replica a hello opens is
// placed under the kernel the hello names, so a `-backend process`
// run's children compute on the kernel every envelope of the run
// names, not on the process default.
func TestWorkerReplicaRunsUnderTheSentKernel(t *testing.T) {
	for _, name := range []string{"naive", "blocked"} {
		want, _ := tensor.LookupKernels(name)
		// What Process.Open derives from the run's context crosses the
		// pipe and is opened on the far side.
		sent, err := decodeHello(encodeHello(hello{BenchID: "DC-AI-C16", Kernel: want.Name(), Seed: 42, Workers: 1}))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sent.open()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.params {
			if got := tensor.RunOf(p.Value.Data).Kernels; got != want {
				t.Fatalf("%s hello: parameter %s dispatches to %s", name, p.Name, got.Name())
			}
		}
	}
}

// TestWorkerRejectsUnbuildableKernel: a hello naming a kernel the child
// does not have comes back as an error frame — the parent fails that
// one benchmark with the reason — never a panic or a wait for more
// input.
func TestWorkerRejectsUnbuildableKernel(t *testing.T) {
	for _, c := range []struct {
		name string
		h    hello
		want string
	}{
		{"unknown kernel", hello{BenchID: "DC-AI-C16", Kernel: "cuda", Workers: 1}, "unknown kernel"},
		{"former tuned name", hello{BenchID: "DC-AI-C16", Kernel: "tuned", Workers: 1}, "unknown kernel"},
	} {
		var out bytes.Buffer
		err := WorkerMain(bytes.NewReader(frameBytes(t, frameHello, encodeHello(c.h))), &out)
		if err == nil {
			t.Errorf("%s: WorkerMain served the hello", c.name)
		}
		typ, payload, rerr := readFrame(bufio.NewReader(&out), new([]byte))
		if rerr != nil || typ != frameError {
			t.Fatalf("%s: reply frame type %d, err %v; want an error frame", c.name, typ, rerr)
		}
		if msg := (&frameReader{b: payload}).str(); !strings.Contains(msg, c.want) || strings.Contains(msg, "panicked") {
			t.Errorf("%s: error frame says %q, want mention of %q and no panic", c.name, msg, c.want)
		}
	}
}

// TestWorkerRefusesFramesOutsideTheProtocol: a child serves only the
// requests replyTo lists, in sequence. A type the table does not list,
// a reply type sent as a request, and a second hello each come back as
// an error frame naming the type — the parent fails that one benchmark
// with the reason — never a panic or a reply to something nobody asked.
func TestWorkerRefusesFramesOutsideTheProtocol(t *testing.T) {
	h := frameBytes(t, frameHello, encodeHello(hello{BenchID: "DC-AI-C16", Kernel: "naive", Seed: 42, Workers: 1}))
	for _, c := range []struct {
		name string
		in   []byte
		want string
	}{
		{"unlisted type", bytes.Join([][]byte{h, frameBytes(t, 0xff, nil)}, nil), "frame type 255 is not a request"},
		{"reply as request", bytes.Join([][]byte{h, frameBytes(t, framePhaseOut, encodePhaseOut(nil, seedPhaseOut))}, nil), fmt.Sprintf("frame type %d is not a request", framePhaseOut)},
		{"second hello", bytes.Join([][]byte{h, h}, nil), fmt.Sprintf("frame type %d is a second hello", frameHello)},
		{"request before hello", frameBytes(t, frameApply, nil), fmt.Sprintf("expected hello frame, got type %d", frameApply)},
	} {
		var out bytes.Buffer
		if err := WorkerMain(bytes.NewReader(c.in), &out); err == nil {
			t.Errorf("%s: WorkerMain served it", c.name)
		}
		r := bufio.NewReader(&out)
		var buf []byte
		typ, payload, err := readFrame(r, &buf)
		if typ == frameSpec { // the hello's reply
			typ, payload, err = readFrame(r, &buf)
		}
		if err != nil || typ != frameError {
			t.Fatalf("%s: reply frame type %d, err %v; want an error frame", c.name, typ, err)
		}
		if msg := (&frameReader{b: payload}).str(); msg != c.want {
			t.Errorf("%s: error frame says %q, want %q", c.name, msg, c.want)
		}
		if r.Buffered() != 0 {
			t.Errorf("%s: %d bytes after the error frame", c.name, r.Buffered())
		}
	}
}

// TestRunKernelSeesEveryShardedCall is models'
// TestRunKernelSeesEveryCall through the replica loop, on both paths
// that build a replica: the local backend's Open under the run its
// context carries, and the worker child's hello. Every kernel call of a
// sharded DC-AI-C16 epoch and its evaluation must dispatch through the
// kernel the replicas were placed under and count into the run's
// counters — the child's own, when the hello asks for them — and none
// may fall through to the process default.
func TestRunKernelSeesEveryShardedCall(t *testing.T) {
	naive, _ := tensor.LookupKernels("naive")
	var factory models.Factory
	for _, e := range models.AllEntries() {
		if e.ID == "DC-AI-C16" {
			factory = e.Factory
		}
	}
	check := func(t *testing.T, counting *kerneltest.Counting, counters *telemetry.Counters, fell int64) {
		t.Helper()
		if got, traced := counting.Calls.Load(), kerneltest.Traced(counters); fell != 0 || got == 0 || traced != got {
			t.Errorf("%d kernel calls went through the run's kernel, %d into its counters; %d fell through to the process default", got, traced, fell)
		}
	}

	t.Run("local", func(t *testing.T) {
		counting, counters := kerneltest.Count(naive), new(telemetry.Counters)
		ctx := tensor.WithRun(context.Background(), &tensor.Run{Kernels: counting, Counters: counters})
		before := tensor.UnplacedDispatches()
		eng, err := New(ctx, "DC-AI-C16", factory, 42, NewLocal(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err = eng.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		if _, err = eng.Quality(); err != nil {
			t.Fatal(err)
		}
		fell := tensor.UnplacedDispatches() - before
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, counting, counters, fell)
	})

	t.Run("worker", func(t *testing.T) {
		rep, err := hello{BenchID: "DC-AI-C16", Kernel: "naive", Seed: 42, Workers: 1, Counters: true}.open()
		if err != nil {
			t.Fatal(err)
		}
		// A wrapper cannot cross a pipe: count through what the hello
		// resolved by wrapping it where the hello put it.
		run := tensor.RunOf(rep.params[0].Value.Data)
		if run.Counters == nil || run.Counters != rep.counters {
			t.Fatal("a hello asking for counters opened a replica that does not count into the ones it ships home")
		}
		counting := kerneltest.Count(run.Kernels)
		rep.trainer.Arena().SetRun(&tensor.Run{Kernels: counting, Counters: run.Counters})
		before := tensor.UnplacedDispatches()
		rep.trainer.BeginEpoch()
		for step := 0; step < rep.spec.Steps; step++ {
			for p := range rep.spec.Phases {
				rep.computePhase(p)
				rep.apply(p, make([]float64, rep.spec.GroupLen[p]), make([]float64, rep.spec.BufLen))
			}
		}
		rep.quality()
		check(t, counting, run.Counters, tensor.UnplacedDispatches()-before)
	})
}
