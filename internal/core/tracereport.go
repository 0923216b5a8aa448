package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"aibench/internal/telemetry"
)

// Trace report: renders a persisted telemetry trace (deterministic
// plane) — optionally joined with its wall-clock RunMetrics — as the
// `-trace` view of `aibench report -from`. Like every run-report
// renderer, it works from records alone, so a report rebuilt from
// results.jsonl is byte-identical to the live run's (the wall-clock
// columns come from the persisted runmetrics record, not from
// re-measuring).

// RenderTraces renders every trace in the record stream. Traces and
// runmetrics pair up in stream order (a telemetry run emits exactly
// one of each, trace first).
func RenderTraces(w io.Writer, recs []Record) {
	var traces []*telemetry.Trace
	var metrics []*telemetry.RunMetrics
	for _, r := range recs {
		switch {
		case r.Kind == KindTrace && r.Trace != nil:
			traces = append(traces, r.Trace)
		case r.Kind == KindRunMetrics && r.RunMetrics != nil:
			metrics = append(metrics, r.RunMetrics)
		}
	}
	if len(traces) == 0 {
		fmt.Fprintln(w, "no trace records (run with -telemetry to collect one)")
		return
	}
	for i, t := range traces {
		var m *telemetry.RunMetrics
		if i < len(metrics) && len(metrics[i].Spans) == len(t.Spans) {
			m = metrics[i]
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		RenderTrace(w, t, m)
	}
}

// RenderTrace renders one trace: the deterministic counter summary,
// the kernel-op table, the per-benchmark span summary, and — when the
// matching wall-clock plane is present — the top self-time span names.
func RenderTrace(w io.Writer, t *telemetry.Trace, m *telemetry.RunMetrics) {
	c := t.Counters
	fmt.Fprintf(w, "Trace: kind=%s spans=%d\n", t.Kind, len(t.Spans))
	fmt.Fprintf(w, "Counters: epochs=%d grains=%d reduce_rounds=%d reduce_mfloats=%.2f sink_records=%d\n",
		c.Epochs, c.Grains, c.ReduceRounds, float64(c.ReduceFloats)/1e6, c.SinkRecords)

	if len(c.Kernel) > 0 {
		fmt.Fprintf(w, "%-10s %12s %14s\n", "Kernel op", "Calls", "GFLOPs")
		for _, k := range c.Kernel {
			fmt.Fprintf(w, "%-10s %12d %14.3f\n", k.Op, k.Calls, float64(k.FLOPs)/1e9)
		}
	}

	kids := childIndex(t.Spans)
	fmt.Fprintf(w, "%-16s %8s %8s %8s %14s", "Benchmark", "Spans", "Epochs", "Steps", "Red.MFloats")
	if m != nil {
		fmt.Fprintf(w, " %10s", "Wall ms")
	}
	fmt.Fprintln(w)
	for _, top := range kids[0] { // children of the root "run" span
		var agg subtreeAgg
		aggregate(t.Spans, kids, top, &agg)
		fmt.Fprintf(w, "%-16s %8d %8d %8d %14.2f",
			t.Spans[top].Name, agg.spans, agg.epochs, agg.steps, float64(agg.reduced)/1e6)
		if m != nil {
			fmt.Fprintf(w, " %10.1f", float64(m.Spans[top].DurNS)/1e6)
		}
		fmt.Fprintln(w)
	}

	if m != nil {
		renderSelfTime(w, t, m)
		fmt.Fprintf(w, "Wall: total=%.1fms gomaxprocs=%d heap=%.1fMB gc=%d pool_calls=%d pool_busy=%.1fms\n",
			float64(m.WallNS)/1e6, m.GOMAXPROCS, float64(m.HeapBytes)/1e6, m.GCCycles,
			m.Pool.Calls, float64(m.Pool.BusyNS)/1e6)
	}
}

// subtreeAgg accumulates one top-level span's descendants.
type subtreeAgg struct {
	spans   int
	epochs  int64
	steps   int
	reduced int64
}

func aggregate(spans []telemetry.SpanRecord, kids [][]int, id int, agg *subtreeAgg) {
	s := spans[id]
	agg.spans++
	switch {
	case s.Name == "epoch":
		agg.epochs++
	case strings.HasPrefix(s.Name, "shards="):
		agg.epochs += s.Value // a scaling point's value is the epochs it timed
	case s.Name == "step":
		agg.steps++
	case s.Name == "allreduce" || s.Name == "bufsync":
		agg.reduced += s.Value
	}
	for _, c := range kids[id] {
		aggregate(spans, kids, c, agg)
	}
}

// childIndex builds the parent -> children adjacency from the
// flattened span records (preorder: parents precede children).
func childIndex(spans []telemetry.SpanRecord) [][]int {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	return kids
}

// renderSelfTime writes the top span names by aggregate self time
// (duration minus children's durations) — the wall-clock hotspot view.
func renderSelfTime(w io.Writer, t *telemetry.Trace, m *telemetry.RunMetrics) {
	self := make([]int64, len(t.Spans))
	for i := range m.Spans {
		self[i] = m.Spans[i].DurNS
	}
	for _, s := range t.Spans {
		if s.Parent >= 0 {
			self[s.Parent] -= m.Spans[s.ID].DurNS
		}
	}
	byName := map[string]int64{}
	counts := map[string]int{}
	for i, s := range t.Spans {
		byName[s.Name] += self[i]
		counts[s.Name]++
	}
	var names []string
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if byName[names[i]] != byName[names[j]] {
			return byName[names[i]] > byName[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "Top self-time (wall-clock plane):\n")
	fmt.Fprintf(w, "%-20s %8s %12s\n", "Span name", "Count", "Self ms")
	for i, n := range names {
		if i >= 10 {
			break
		}
		fmt.Fprintf(w, "%-20s %8d %12.2f\n", n, counts[n], float64(byName[n])/1e6)
	}
}
