// Command aibench-report renders reports. By default it regenerates
// every table and figure of the paper's evaluation section in one pass,
// separated by headers — the batch mode behind EXPERIMENTS.md. With
// -from it instead rebuilds run reports (sessions, characterizations,
// scaling, replays, traces) from a persisted JSONL result stream with
// zero retraining: the records were already measured, so rebuilding is pure
// decoding plus the same renderers the live CLI uses, and the output is
// byte-identical to the live run's.
//
// Usage:
//
//	aibench-report                               # every paper table/figure
//	aibench-report table5 figure4                # a subset of them
//	aibench-report -from results.jsonl           # every run report in the file
//	aibench-report -from results.jsonl sessions  # one run report, bare
//	aibench-report -from results.jsonl -trace    # the telemetry trace report
//	aibench-report -from results.jsonl -trace-out trace.json  # Chrome trace-event export
package main

import (
	"flag"
	"fmt"
	"os"

	"aibench"
	"aibench/internal/results"
	"aibench/internal/telemetry"
)

func main() {
	from := flag.String("from", "", "rebuild run reports from this persisted JSONL result stream instead of regenerating paper reports")
	trace := flag.Bool("trace", false, "with -from: render the telemetry trace report (deterministic plane + wall-clock columns)")
	traceOut := flag.String("trace-out", "", "with -from: export the stream's first trace as Chrome trace-event JSON to this file")
	flag.Parse()
	if (*trace || *traceOut != "") && *from == "" {
		fmt.Fprintln(os.Stderr, "-trace and -trace-out require -from")
		os.Exit(2)
	}
	if *from != "" {
		rebuild(*from, flag.Args(), *trace, *traceOut)
		return
	}
	suite := aibench.NewSuite()
	names := flag.Args()
	if len(names) == 0 {
		names = aibench.ReportNames()
	}
	for _, name := range names {
		fmt.Printf("==== %s ====\n", name)
		if !suite.Report(name, os.Stdout, aibench.TitanXP(), 1) {
			fmt.Fprintf(os.Stderr, "unknown report %q (have %v)\n", name, aibench.ReportNames())
			os.Exit(1)
		}
		fmt.Println()
	}
}

// rebuild renders run reports from a persisted stream. With no names it
// renders every run report the stream has records for; a single
// explicit name renders bare (no header), so rebuilt output can be
// diffed directly against a live run's. -trace forces the telemetry
// trace report; -trace-out additionally (or, given alone, only) exports
// the stream's first trace as Chrome trace-event JSON.
func rebuild(path string, names []string, trace bool, traceOut string) {
	stream, err := results.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if stream.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "note: skipped %d records with an unknown envelope version or kind\n", stream.Skipped)
	}
	if traceOut != "" {
		exportChrome(stream, traceOut)
		if !trace && len(names) == 0 {
			return
		}
	}
	if trace {
		names = []string{"trace"}
	}
	kinds := stream.Kinds()
	if len(names) == 0 {
		for _, n := range aibench.RunReportNames() {
			if k, _ := aibench.RunReportKind(n); kinds[k] > 0 {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			fmt.Fprintf(os.Stderr, "%s holds no renderable records\n", path)
			os.Exit(1)
		}
	}
	headers := len(names) > 1
	for _, n := range names {
		if headers {
			fmt.Printf("==== %s ====\n", n)
		}
		if !aibench.RenderRunReport(n, os.Stdout, stream.Records) {
			fmt.Fprintf(os.Stderr, "unknown run report %q (have %v)\n", n, aibench.RunReportNames())
			os.Exit(1)
		}
		if headers {
			fmt.Println()
		}
	}
}

// exportChrome writes the stream's first trace + runmetrics pair as
// Chrome trace-event JSON, loadable in chrome://tracing or
// ui.perfetto.dev. The span layout (ids, names, tree) comes from the
// deterministic plane; only the timestamps come from the wall-clock
// plane.
func exportChrome(stream *results.Stream, path string) {
	traces := stream.Traces()
	metrics := stream.RunMetrics()
	if len(traces) == 0 || len(metrics) == 0 {
		fmt.Fprintln(os.Stderr, "no trace/runmetrics records to export (collect them with `aibench run ... -telemetry -out ...`)")
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	werr := telemetry.WriteChrome(f, traces[0], metrics[0])
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "trace export: %v\n", werr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s\n", path)
}
