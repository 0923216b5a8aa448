// Command bench is the repository's own benchmark: five workloads, each
// run in one process — set-up, a timed window with tracing off, and on
// request a short traced pass with per-layer probes — with every output
// checked for correctness. See README.md beside this file for what each
// metric means and why it was chosen; BENCHMARK.json at the repository
// root declares the same names for the driver.
//
//	bash bench/run.sh --workload train-gemm --seed 1 --seconds 15 --trace 0
//
// prints the end-to-end metrics, --trace 1 the per-layer ones; the last
// line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"aibench"
	"aibench/internal/dist"
)

// processStart is as close to process start as a Go program can read a
// clock; the first set-up is timed from here.
var processStart = time.Now()

func main() {
	if served, err := serveChild(); served {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(mainExit(os.Args[1:], os.Stdout))
}

// runLimit is how long one workload may take before the process gives
// up on it: the driver allows 180 s, and a run that long is stuck. The
// children read their commands from pipes this process holds, so they
// end with it.
const runLimit = 170 * time.Second

// serveChild runs this process as one of the harness's own children —
// a replica of the process dist backend, or the reference kernel — when
// the environment marks it as one, and reports whether it did.
func serveChild() (bool, error) {
	switch {
	case os.Getenv(dist.WorkerEnv) != "":
		return true, aibench.RunDistWorker(os.Stdin, os.Stdout)
	case os.Getenv(refEnv) != "":
		return true, refChildMain(os.Stdin, os.Stdout)
	}
	return false, nil
}

func mainExit(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed window")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "smallest sizes that still emit every metric; the numbers mean nothing")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the traced pass's spans to this file as JSON")
	aa := fs.Int("aa", 0, "run every workload this many times, split the runs into two interleaved sets, and compare them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if *aa > 0 {
		return runAA(*aa, cfg.seconds, stdout)
	}
	if findWorkload(cfg.workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", cfg.workload, workloadNames())
		return 2
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %s; giving up\n", cfg.workload, runLimit)
		os.Exit(3)
	})
	return report(cfg, stdout)
}

// report runs one workload, prints its result line, and returns the
// process's exit code: non-zero when the run could not finish or any
// job failed its correctness check.
func report(cfg config, stdout io.Writer) int {
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadDef is one workload and how to set it up, warm-up blocks
// included.
type workloadDef struct {
	name  string
	setup func(h *harness, warmBlocks int) (env, error)
}

// libraryWorkload: one caller, one job per sample (B=1).
func libraryWorkload(plan func(config) aibench.Plan) func(*harness, int) (env, error) {
	return func(h *harness, warmBlocks int) (env, error) {
		return setupLibrary(h, plan(h.cfg), warmBlocks)
	}
}

// servedWorkload: perBlock is the jobs each tenant runs in one sample,
// smokeBlock replaces it under -smoke.
func servedWorkload(replay bool, perBlock, smokeBlock int) func(*harness, int) (env, error) {
	return func(h *harness, warmBlocks int) (env, error) {
		n := perBlock
		if h.cfg.smoke {
			n = smokeBlock
		}
		return setupServed(h, replay, n, warmBlocks)
	}
}

// workloads lists the five in the order BENCHMARK.json declares them.
// served-miss has two tenants, so B = 20; served-replay has one.
var workloads = []workloadDef{
	{name: "train-gemm", setup: libraryWorkload(trainGemmPlan)},
	{name: "train-smallop", setup: libraryWorkload(trainSmallopPlan)},
	{name: "sharded-process", setup: libraryWorkload(shardedProcessPlan)},
	{name: "served-miss", setup: servedWorkload(false, 10, 1)},
	{name: "served-replay", setup: servedWorkload(true, 4000, 20)},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// sizes are the counts that -smoke shrinks.
type sizes struct {
	setups       int // times the set-up is repeated; setup_s is their median
	warmBlocks   int // untimed blocks at the end of each set-up
	minBlocks    int // fewest samples a timed window may hold
	tracedBlocks int // blocks in the traced pass
	soloBlocks   int // traced one-tenant blocks (served-miss)
}

func sizesFor(cfg config) sizes {
	s := sizes{setups: 3, warmBlocks: 3, minBlocks: 5, tracedBlocks: 6, soloBlocks: 3}
	if cfg.trace {
		s.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	if cfg.smoke {
		s = sizes{setups: 1, warmBlocks: 1, minBlocks: 2, tracedBlocks: 2, soloBlocks: 1}
	}
	return s
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and returns its result. Human-readable
// progress goes to stdout ahead of the result line.
func run(cfg config, stdout io.Writer) (res *result, err error) {
	def := findWorkload(cfg.workload)
	sz := sizesFor(cfg)
	refKind := refFull
	if cfg.smoke {
		refKind = refSmoke
		cfg.seconds = 0 // minBlocks alone sizes the window
	}
	h := &harness{cfg: cfg}

	// Set-up, repeated: the reference child and its warm-up, the suite
	// or server, the cache fill, the warm-up blocks. Every repetition
	// but the last is torn down again.
	var e env
	var setupS, setupWallS []float64
	for i := 0; i < sz.setups; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if h.ref, err = startRef(refKind); err != nil {
			return nil, err
		}
		// One discarded timing: the child's first calls fault its pages in.
		if _, err = h.ref.gapMS(); err != nil {
			return nil, errors.Join(err, h.ref.close())
		}
		h.setupRefMS = h.setupRefMS[:0]
		if e, err = def.setup(h, sz.warmBlocks); err != nil {
			return nil, errors.Join(err, h.ref.close())
		}
		// Seconds at the sandbox's undisturbed speed: wall seconds scaled
		// by how much slower than nominal the reference kernel ran while
		// this set-up did.
		wall := time.Since(start).Seconds()
		setupWallS = append(setupWallS, wall)
		setupS = append(setupS, wall*refNominalMS/mean(h.setupRefMS))
		if i+1 < sz.setups {
			if err = errors.Join(e.close(), h.ref.close()); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if cerr := errors.Join(e.close(), h.ref.close()); err == nil {
			err = cerr
		}
	}()

	metrics := map[string]float64{}
	runtime.GC() // start every window from a collected heap
	if !cfg.trace {
		w, err := h.measure(e, seconds(cfg.seconds), sz.minBlocks, 0, blockOpt{})
		if err != nil {
			return nil, err
		}
		metrics["setup_s"] = median(setupS)
		metrics["job_p50_rel"] = median(w.samples)
		metrics["alloc_mb_per_job"] = float64(w.allocB) / float64(w.jobs) / 1e6
		metrics["mallocs_k_per_job"] = float64(w.mallocs) / float64(w.jobs) / 1e3
		fmt.Fprintf(stdout, "%s seed %d: %d jobs in %d samples, job p50 %.3f ms, reference p50 %.3f ms, set-up %.3f s on the wall\n",
			cfg.workload, cfg.seed, w.jobs, len(w.samples), median(w.jobMS), median(w.refMS), median(setupWallS))
		return h.result(endToEnd, metrics, stdout)
	}
	if err := tracedRun(h, e, sz, metrics); err != nil {
		return nil, err
	}
	if cfg.traceOut != "" {
		if err := h.spans.write(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return h.result(perLayer, metrics, stdout)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// result builds the result line from the measured values, insisting
// that every declared metric was measured: a metric the manifest names
// and the run does not emit would fail the driver's schema check.
func (h *harness) result(defs []metricDef, values map[string]float64, stdout io.Writer) (*result, error) {
	res := &result{
		Correct:   h.failed == 0,
		Attempted: h.attempted,
		Failed:    h.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", d.name, v, d.unit)
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared", name)
		}
	}
	return res, nil
}
