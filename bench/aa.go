package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// exactMetrics are the per-layer counts that define the work rather
// than measure it: two runs on one seed must agree on them to the last
// digit, and a change in one means the workload itself changed.
var exactMetrics = []string{
	"tensor.gflop_per_job",
	"tensor.kernel_calls_k_per_job",
	"core.epochs_per_job",
	"results.bytes_per_record",
	"dist.grains_per_job",
	"dist.reduce_rounds_per_job",
	"dist.reduce_floats_k_per_job",
	"server.bytes_per_job",
}

// runAA is the benchmark's test of itself: the same code measured twice
// must agree with itself within the bounds it declares. It runs every
// workload k times, each time on another seed and in a process of its
// own as the driver does, splits the runs into two interleaved sets
// (odd and even), and prints per end-to-end metric both medians, how
// much worse the second is than the first, each set's spread
// (interquartile range ÷ median), and a verdict against the bound in
// BENCHMARK.json. Then it runs the traced pass twice on one seed and
// once on another and compares the exact counts.
func runAA(k int, secs float64, stdout io.Writer) int {
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa runs from the repository root:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runOne := func(workload string, seed int, trace int) (*result, error) {
		cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
			"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
		}
		return &res, nil
	}

	started := time.Now()
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	failedJobs := 0
	for i := 0; i < k; i++ {
		for _, w := range workloads {
			res, err := runOne(w.name, i+1, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			failedJobs += res.Failed
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s done (%s elapsed)\n", i+1, k, w.name, time.Since(started).Round(time.Second))
		}
	}

	fmt.Fprintf(stdout, "# A/A: %d runs per workload, %g s each, seeds 1..%d, split odd/even\n\n", k, secs, k)
	fmt.Fprintf(stdout, "Same code on both sides. `gap` is how much worse set B's median is than set A's (negative: better), `spread` is a set's interquartile range ÷ its median. A row passes when the gap and, except for `setup_s`, both spreads are within the bound.\n\n")
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | gap | spread A | spread B | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n")
	pass := failedJobs == 0
	for _, w := range workloads {
		for _, mm := range man.EndToEnd {
			var a, b []float64
			for i, v := range values[w.name][mm.Name] {
				if i%2 == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			gap := ratio(median(b)-median(a), median(a))
			if mm.Better == "higher" {
				gap = -gap
			}
			sa, sb := spread(a), spread(b)
			ok := gap <= *mm.Bound && (mm.Name == "setup_s" || (sa <= *mm.Bound && sb <= *mm.Bound))
			verdict := "PASS"
			if !ok {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(stdout, "| %s | %s | %.5g | %.5g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, mm.Name, median(a), median(b), gap*100, sa*100, sb*100, *mm.Bound*100, verdict)
		}
	}

	fmt.Fprintf(stdout, "\n## Every value, in run order (seed 1 first; odd seeds are set A)\n\n")
	for _, w := range workloads {
		for _, mm := range man.EndToEnd {
			fmt.Fprintf(stdout, "- `%s/%s`:", w.name, mm.Name)
			for _, v := range values[w.name][mm.Name] {
				fmt.Fprintf(stdout, " %.5g", v)
			}
			fmt.Fprintln(stdout)
		}
	}

	fmt.Fprintf(stdout, "\n## Exact counts: traced pass on seed 1, seed 1 again, seed 2\n\n")
	fmt.Fprintf(stdout, "| workload | metric | seed 1 | seed 1 again | seed 2 | repeats |\n|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		var runs [3]*result
		for i, seed := range []int{1, 1, 2} {
			if runs[i], err = runOne(w.name, seed, 1); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			failedJobs += runs[i].Failed
		}
		for _, name := range exactMetrics {
			v := [3]float64{runs[0].Metrics[name].Value, runs[1].Metrics[name].Value, runs[2].Metrics[name].Value}
			repeats := "yes"
			if v[0] != v[1] {
				repeats, pass = "NO", false
			}
			fmt.Fprintf(stdout, "| %s | %s | %v | %v | %v | %s |\n", w.name, name, v[0], v[1], v[2], repeats)
		}
	}
	fmt.Fprintf(stdout, "\nFailed jobs across all runs: %d. Wall time: %s.\n", failedJobs, time.Since(started).Round(time.Second))
	if !pass || failedJobs > 0 {
		return 1
	}
	return 0
}

// spread is the interquartile range over the median, with the quartiles
// of Python's statistics.quantiles(values, n=4) (the exclusive method),
// which is what the driver computes.
func spread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return ratio(q(0.75)-q(0.25), median(v))
}
