// Command aibench-benchjson converts `go test -bench` text output into
// a compact JSON artifact mapping benchmark name → ns/op (and B/op,
// allocs/op where the benchmark reports allocations). CI runs it
// on every push to turn the sharded-session benchmarks into a
// per-commit performance trajectory (BENCH_<sha>.json artifacts) that
// can be diffed or plotted across history.
//
// Usage:
//
//	go test -bench BenchmarkShardedSession -benchtime 1x -run '^$' ./internal/dist |
//	    aibench-benchjson -sha "$GITHUB_SHA" -out BENCH_$GITHUB_SHA.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
)

// report is the artifact schema: commit metadata plus one ns/op entry
// per benchmark (the -N GOMAXPROCS suffix is kept so width changes on
// the runner are visible rather than silently merged). Results whose
// name carries a kernel=<name> sub-benchmark segment are additionally
// bucketed per compute kernel, so the performance trajectory separates
// kernel wins from orchestration wins.
type report struct {
	SHA     string             `json:"sha,omitempty"`
	Results map[string]float64 `json:"results"`
	// Kernels maps compute-kernel name → benchmark name → ns/op for
	// the subset of results that declare a kernel dimension.
	Kernels map[string]map[string]float64 `json:"kernels,omitempty"`
	// Mem maps benchmark name → allocation cost for the subset of
	// results that report it (b.ReportAllocs or -benchmem).
	Mem map[string]memStats `json:"mem,omitempty"`
}

// memStats is one benchmark's allocation cost per operation.
type memStats struct {
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkShardedSession/shards=4-8   1   123456789 ns/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// memCols matches the allocation columns a result line ends with when
// the benchmark reports them; custom metrics (GFLOPS) may sit between
// ns/op and these.
var memCols = regexp.MustCompile(`\s([0-9.]+) B/op\s+([0-9.]+) allocs/op`)

// kernelDim extracts the kernel=<name> path segment benchmarks use to
// declare which compute kernel produced a result. It runs against the
// name with the GOMAXPROCS suffix already removed, so kernel names may
// themselves contain dash-digits (e.g. a future "avx-512").
var kernelDim = regexp.MustCompile(`(?:^|/)kernel=([^/]+)`)

// gomaxprocsSuffix is the -N the test runner appends to the full
// benchmark name (and only there — never mid-name).
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// splitKernels buckets results by their kernel dimension; results
// without one are left out (they are orchestration benchmarks, not
// kernel benchmarks). Returns nil when nothing declares a kernel.
// Bucket entries keep the original, unstripped benchmark name.
func splitKernels(results map[string]float64) map[string]map[string]float64 {
	var byKernel map[string]map[string]float64
	//lint:allow maprange buckets one map into others; every map is JSON-encoded, and encoding/json sorts keys, so iteration order never reaches the artifact
	for name, ns := range results {
		m := kernelDim.FindStringSubmatch(gomaxprocsSuffix.ReplaceAllString(name, ""))
		if m == nil {
			continue
		}
		if byKernel == nil {
			byKernel = make(map[string]map[string]float64)
		}
		if byKernel[m[1]] == nil {
			byKernel[m[1]] = make(map[string]float64)
		}
		byKernel[m[1]][name] = ns
	}
	return byKernel
}

// parseBench extracts benchmark name → ns/op, and name → B/op and
// allocs/op where present, from `go test -bench` output, ignoring
// non-result lines (headers, PASS/ok, logs). It is an error for the
// input to contain no results — an empty artifact would silently
// record "no trajectory" instead of a broken benchmark run.
func parseBench(r io.Reader) (map[string]float64, map[string]memStats, error) {
	results := make(map[string]float64)
	var mem map[string]memStats
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad ns/op %q in line %q: %v", m[2], sc.Text(), err)
		}
		results[m[1]] = ns
		if mc := memCols.FindStringSubmatch(sc.Text()); mc != nil {
			bytesPer, berr := strconv.ParseFloat(mc[1], 64)
			allocs, aerr := strconv.ParseFloat(mc[2], 64)
			if berr != nil || aerr != nil {
				return nil, nil, fmt.Errorf("bad B/op or allocs/op in line %q", sc.Text())
			}
			if mem == nil {
				mem = make(map[string]memStats)
			}
			mem[m[1]] = memStats{BytesPerOp: bytesPer, AllocsPerOp: allocs}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(results) == 0 {
		return nil, nil, fmt.Errorf("no benchmark result lines found")
	}
	return results, mem, nil
}

func main() {
	in := flag.String("in", "-", "benchmark text to read (- = stdin)")
	out := flag.String("out", "-", "JSON file to write (- = stdout)")
	sha := flag.String("sha", "", "commit SHA recorded in the artifact")
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	results, mem, err := parseBench(src)
	if err != nil {
		fatal(err)
	}

	dst := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report{SHA: *sha, Results: results, Kernels: splitKernels(results), Mem: mem}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aibench-benchjson:", err)
	os.Exit(1)
}
