package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatalf("nil span Child returned %v, want nil", c)
	}
	s.Add(5)
	s.End()
}

func TestNilCountersAndNoTracerAreOff(t *testing.T) {
	var c *Counters
	c.Count(CounterEpochs, 3)
	c.CountKernel(OpMatMul, 100)
	c.Merge([]OpCount{{Op: "matmul", Calls: 1}})
	if cs := c.Snapshot(); cs.Epochs != 0 || len(cs.Kernel) != 0 {
		t.Fatalf("nil counters recorded data: %+v", cs)
	}
	var s *Span
	s.Count(CounterEpochs, 1)
	if PoolBegin(2, 1) != nil {
		t.Fatal("PoolBegin returned non-nil with no live tracer")
	}
}

// Two tracers live at once own their counters outright: neither Start
// resets nor Stop blinds the other, a span counts into its own run, and
// the pool statistics each reports are its own window of the
// process-wide totals.
func TestOverlappingTracersStayExact(t *testing.T) {
	a := Start("session")
	a.Counters().CountKernel(OpMatMul, 10)
	PoolBegin(1, 0)()
	b := Start("replay")
	b.Root().Child("x").Count(CounterEpochs, 5)
	b.Counters().Merge([]OpCount{{Op: "conv2d", Calls: 1, FLOPs: 9}, {Op: "from-the-future", Calls: 7}})
	PoolBegin(3, 2)()
	ta, ma := a.Stop()
	if PoolBegin(1, 1) == nil {
		t.Fatal("pool statistics stopped collecting while a tracer is still live")
	}
	b.Counters().CountKernel(OpConv2D, 1)
	tb, mb := b.Stop()
	if want := (CounterSet{Kernel: []OpCount{{Op: "matmul", Calls: 1, FLOPs: 10}}}); !reflect.DeepEqual(ta.Counters, want) {
		t.Errorf("first tracer counted %+v, want %+v", ta.Counters, want)
	}
	if want := (CounterSet{Epochs: 5, Kernel: []OpCount{{Op: "conv2d", Calls: 2, FLOPs: 10}}}); !reflect.DeepEqual(tb.Counters, want) {
		t.Errorf("second tracer counted %+v, want %+v", tb.Counters, want)
	}
	if ma.Pool.Calls != 2 || ma.Pool.SerialCalls != 1 || ma.Pool.ExtraRequested != 4 || ma.Pool.ExtraAcquired != 2 {
		t.Errorf("first tracer's pool window = %+v", ma.Pool)
	}
	if mb.Pool.Calls != 2 || mb.Pool.SerialCalls != 0 || mb.Pool.ExtraRequested != 4 || mb.Pool.ExtraAcquired != 3 {
		t.Errorf("second tracer's pool window = %+v", mb.Pool)
	}
	if PoolBegin(1, 1) != nil {
		t.Error("pool statistics still collecting after the last tracer stopped")
	}
}

func TestTracerCollectsCountersAndSpans(t *testing.T) {
	tr := Start("session")
	c := tr.Counters()
	c.Count(CounterEpochs, 2)
	c.Count(CounterGrains, 8)
	c.CountKernel(OpConv2D, 1000)
	c.CountKernel(OpMatMul, 500)
	c.CountKernel(OpMatMul, 500)
	done := PoolBegin(3, 2)
	if done == nil {
		t.Fatal("PoolBegin returned nil while enabled")
	}
	done()
	b := tr.Root().Child("bench")
	e := b.Child("epoch")
	e.Add(7)
	e.End()
	b.End()
	trace, m := tr.Stop()
	if trace.Kind != "session" {
		t.Fatalf("kind = %q", trace.Kind)
	}
	if trace.Counters.Epochs != 2 || trace.Counters.Grains != 8 {
		t.Fatalf("counters = %+v", trace.Counters)
	}
	// Kernel ops in fixed enum order, only dispatched ops present.
	want := []OpCount{
		{Op: "matmul", Calls: 2, FLOPs: 1000},
		{Op: "conv2d", Calls: 1, FLOPs: 1000},
	}
	if !reflect.DeepEqual(trace.Counters.Kernel, want) {
		t.Fatalf("kernel counters = %+v, want %+v", trace.Counters.Kernel, want)
	}
	// Spans: run(0) -> bench(1) -> epoch(2).
	wantSpans := []SpanRecord{
		{ID: 0, Parent: -1, Name: "run", Seq: 0},
		{ID: 1, Parent: 0, Name: "bench", Seq: 0},
		{ID: 2, Parent: 1, Name: "epoch", Seq: 0, Value: 7},
	}
	if !reflect.DeepEqual(trace.Spans, wantSpans) {
		t.Fatalf("spans = %+v, want %+v", trace.Spans, wantSpans)
	}
	if len(m.Spans) != len(trace.Spans) {
		t.Fatalf("runmetrics has %d timings, trace has %d spans", len(m.Spans), len(trace.Spans))
	}
	if m.Pool.Calls != 1 || m.Pool.ExtraRequested != 3 || m.Pool.ExtraAcquired != 2 {
		t.Fatalf("pool stats = %+v", m.Pool)
	}
	if m.GOMAXPROCS < 1 {
		t.Fatalf("gomaxprocs = %d", m.GOMAXPROCS)
	}
}

// Concurrent distinct-name siblings must canonicalize to the same tree
// regardless of completion order — the determinism contract the pooled
// suite runner relies on.
func TestCanonicalOrderIndependentOfCompletion(t *testing.T) {
	run := func(order []string) []byte {
		tr := Start("session")
		var wg sync.WaitGroup
		for _, name := range order {
			wg.Add(1)
			go func(n string) {
				defer wg.Done()
				s := tr.Root().Child(n)
				for i := 0; i < 3; i++ {
					e := s.Child("epoch")
					e.Add(int64(len(n)))
					e.End()
				}
				s.End()
			}(name)
		}
		wg.Wait()
		trace, _ := tr.Stop()
		b, err := json.Marshal(trace.Spans)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := run([]string{"C1", "C15", "C16", "C2"})
	b := run([]string{"C2", "C16", "C1", "C15"})
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical span trees differ:\n%s\n%s", a, b)
	}
}

func TestSeqNumbersSameNameSiblings(t *testing.T) {
	tr := Start("session")
	b := tr.Root().Child("bench")
	for i := 0; i < 3; i++ {
		b.Child("epoch").End()
	}
	b.Child("quality").End()
	trace, _ := tr.Stop()
	var got []string
	for _, s := range trace.Spans[2:] { // skip run, bench
		got = append(got, s.Name)
		if s.Parent != 1 {
			t.Fatalf("span %+v not parented to bench", s)
		}
	}
	want := []string{"epoch", "epoch", "epoch", "quality"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("child order = %v, want %v", got, want)
	}
	seqs := []int{trace.Spans[2].Seq, trace.Spans[3].Seq, trace.Spans[4].Seq, trace.Spans[5].Seq}
	if !reflect.DeepEqual(seqs, []int{0, 1, 2, 0}) {
		t.Fatalf("seqs = %v", seqs)
	}
}

func TestStopForceEndsOpenSpans(t *testing.T) {
	tr := Start("session")
	tr.Root().Child("bench") // never ended
	trace, m := tr.Stop()
	if len(trace.Spans) != 2 {
		t.Fatalf("spans = %+v", trace.Spans)
	}
	for _, tm := range m.Spans {
		if tm.DurNS < 0 {
			t.Fatalf("negative duration %+v", tm)
		}
	}
}

func TestWriteChrome(t *testing.T) {
	tr := Start("session")
	b1 := tr.Root().Child("C1")
	b1.Child("epoch").End()
	b1.End()
	b2 := tr.Root().Child("C2")
	b2.End()
	trace, m := tr.Stop()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, trace, m); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	// 4 spans -> 4 "X" events + metadata for run + 2 lanes.
	var xCount, mCount int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			xCount++
		case "M":
			mCount++
			if ev["name"] != "thread_name" {
				t.Fatalf("metadata event %+v", ev)
			}
		}
	}
	if xCount != 4 || mCount != 3 {
		t.Fatalf("got %d X events, %d M events; output:\n%s", xCount, mCount, buf.String())
	}
	if !strings.Contains(buf.String(), `"C1"`) {
		t.Fatalf("lane names missing: %s", buf.String())
	}

	// Mismatched planes must be rejected.
	if err := WriteChrome(&buf, trace, &RunMetrics{}); err == nil {
		t.Fatal("WriteChrome accepted mismatched runmetrics")
	}
	if err := WriteChrome(&buf, nil, m); err == nil {
		t.Fatal("WriteChrome accepted nil trace")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := Start("scaling")
	tr.Root().Count(CounterEpochs, 1)
	s := tr.Root().Child("shards=2")
	s.Add(4)
	s.End()
	trace, _ := tr.Stop()
	b, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, trace) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, trace)
	}
}
