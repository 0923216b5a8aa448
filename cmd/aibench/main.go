// Command aibench is the suite CLI: list benchmarks, run scaled training
// sessions, characterize workloads, sweep data-parallel scaling, replay
// paper-scale sessions, select the subset, and render the paper's
// tables and figures. Every run command builds an aibench.Plan,
// validates it into a Runner, and executes it with SIGINT cancellation;
// -out streams each record to a JSONL file as a versioned envelope that
// `aibench-report -from` can rebuild reports from without re-running.
//
// Usage:
//
//	aibench list
//	aibench run <id> [-epochs N] [-seed S] [-quasi] [-shards N] [-backend local|process] [-kernel blocked|naive] [-out results.jsonl]
//	aibench run-all [-workers N] [-epochs N] [-seed S] [-quasi] [-shards N] [-backend B] [-kernel K] [-out results.jsonl] [-v]
//	aibench scaling [id] [-shards 1,2,4] [-backend B] [-epochs N] [-seed S] [-kernel K] [-out results.jsonl]
//	aibench characterize <id|all> [-gpu xp|rtx] [-workers N] [-out results.jsonl]
//	aibench replay [id|all] [-seed S] [-out results.jsonl]
//	aibench subset
//	aibench costs
//	aibench report <table1..table7|figure1a..figure7|all>
//	aibench version
//	aibench serve [-addr :8080] [-workers N] [-queue N] [-cache N]
//	aibench submit -plan '{"kind":"session",...}' [-addr host:port] [-tenant T] [-out F]
//
// `aibench serve` runs the suite as a service: Plan submissions POSTed
// to /jobs flow through a bounded per-tenant fair queue and a worker
// pool, results stream back as the same NDJSON envelope lines `run
// -out` writes, and identical submissions replay byte-identically from
// an exact result cache (see internal/server). SIGINT/SIGTERM drains
// gracefully. `aibench submit` is the matching client: it posts a plan
// JSON and streams the response to stdout or -out, where
// `aibench-report -from` can rebuild reports from it.
//
// Every run command also accepts -telemetry (collect the two-plane
// trace/metrics records and print a span summary), -cpuprofile, and
// -memprofile (runtime/pprof profiles of the run).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"aibench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if os.Args[1] == "worker" {
		// Hidden: the process dist backend re-execs this binary as
		// `aibench worker` and drives the replica over stdin/stdout with
		// the frame protocol (see internal/dist). Not part of the CLI
		// surface — never invoke it by hand.
		if err := aibench.RunDistWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	suite := aibench.NewSuite()
	switch os.Args[1] {
	case "list":
		cmdList(suite)
	case "run":
		cmdRun(suite, os.Args[2:])
	case "run-all":
		cmdRunAll(suite, os.Args[2:])
	case "scaling":
		cmdScaling(suite, os.Args[2:])
	case "characterize":
		cmdCharacterize(suite, os.Args[2:])
	case "replay":
		cmdReplay(suite, os.Args[2:])
	case "subset":
		cmdSubset(suite)
	case "costs":
		cmdCosts(suite)
	case "report":
		cmdReport(suite, os.Args[2:])
	case "version":
		cmdVersion(suite, os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "submit":
		cmdSubmit(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: aibench <list|run|run-all|scaling|characterize|replay|subset|costs|report|version|serve|submit> [args]")
}

// cmdVersion prints the header every bug report and trace artifact
// needs: the roster fingerprint behind each envelope's suite_sha, the
// toolchain, and the compute kernels. It takes no flags.
func cmdVersion(s *aibench.Suite, args []string) {
	flag.NewFlagSet("version", flag.ExitOnError).Parse(args)
	fmt.Printf("aibench suite %s\n", s.SHA())
	fmt.Printf("go: %s  gomaxprocs: %d  os/arch: %s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("kernels: %s (default: %s)\n", strings.Join(aibench.KernelNames(), ", "), aibench.DefaultKernel)
}

// kernelFlag registers the -kernel flag shared by the training
// commands; the value goes into Plan.Kernel, where NewRunner validates
// it up front.
func kernelFlag(fs *flag.FlagSet) *string {
	names := strings.Join(aibench.KernelNames(), "|")
	return fs.String("kernel", "", "compute kernel ("+names+"; default: "+aibench.DefaultKernel+")")
}

// backendFlag registers the -backend flag shared by the sharded
// commands; the value goes into Plan.Backend, where NewRunner validates
// it against the dist backend registry. Backends train bitwise
// identically — the flag chooses the execution substrate (in-process
// goroutines vs isolated worker processes), never the numbers.
func backendFlag(fs *flag.FlagSet) *string {
	names := strings.Join(aibench.BackendNames(), "|")
	return fs.String("backend", "", "dist execution backend for sharded training ("+names+"; default: local)")
}

// outFlag registers the -out flag shared by every run command.
func outFlag(fs *flag.FlagSet) *string {
	return fs.String("out", "", "stream each record to this JSONL file as a versioned envelope")
}

// runOpts carries the observability flags shared by every run command.
type runOpts struct {
	telemetry *bool
	cpu, mem  *string
}

// runOptsFlags registers -telemetry/-cpuprofile/-memprofile.
func runOptsFlags(fs *flag.FlagSet) runOpts {
	return runOpts{
		telemetry: fs.Bool("telemetry", false, "collect two-plane trace/metrics records and print a span summary"),
		cpu:       fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem:       fs.String("memprofile", "", "write a heap profile to this file after the run"),
	}
}

// startProfiles begins the requested pprof captures; the returned stop
// finishes them. runPlan calls stop right after the run completes so
// the profiles survive callers that os.Exit (which skips defers).
func startProfiles(opts runOpts) func() {
	var cpuFile *os.File
	if opts.cpu != nil && *opts.cpu != "" {
		f, err := os.Create(*opts.cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create %s: %v\n", *opts.cpu, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}
		if opts.mem != nil && *opts.mem != "" {
			f, err := os.Create(*opts.mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}
}

// printTrace renders the telemetry span summary after the command's
// own output when the run collected one (-telemetry).
func printTrace(res *aibench.RunResult) {
	if res.Trace != nil {
		fmt.Println()
		aibench.RenderRunReport("trace", os.Stdout, res.Records())
	}
}

// parseWithID parses fs against args accepting the positional id before,
// after, or between the flags. The flag package stops at the first
// positional argument, so the documented `aibench characterize <id>
// [-gpu rtx]` form would otherwise silently drop every flag after the
// id. Returns "" when no positional was given.
func parseWithID(fs *flag.FlagSet, args []string) string {
	id := ""
	for len(args) > 0 {
		fs.Parse(args)
		if fs.NArg() == 0 {
			break
		}
		if id == "" {
			id = fs.Arg(0)
		}
		args = fs.Args()[1:]
	}
	return id
}

// runPlan validates the plan, wires SIGINT cancellation, the optional
// JSONL envelope stream, and the observability opts (-telemetry flips
// Plan.Telemetry; profiles bracket the run), then executes it.
// Interrupting once stops launching new work (running sessions stop at
// their next epoch boundary) while partial results still reach the
// stream; a second Ctrl-C force-quits because default signal handling
// is restored after the first. Returns the run's results, how many
// records were persisted, whether the run was interrupted, and the run
// error (a failed sink — a full disk, say — or output-file close):
// callers render the partial results they have, then pass it to
// exitOnRunError and exit non-zero on interruption.
func runPlan(s *aibench.Suite, p aibench.Plan, out string, opts runOpts) (*aibench.RunResult, int, bool, error) {
	if opts.telemetry != nil && *opts.telemetry {
		p.Telemetry = true
	}
	runner, err := s.NewRunner(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)

	var sink func(aibench.Record) error
	var outFile *os.File
	var w *aibench.ResultWriter
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create %s: %v\n", out, err)
			os.Exit(1)
		}
		outFile = f
		meta := runner.Meta()
		meta.Started = time.Now().UTC().Format(time.RFC3339)
		w = aibench.NewResultWriter(f, meta)
		sink = w.Write
	}

	stopProfiles := startProfiles(opts)
	res, runErr := runner.Run(ctx, sink)
	stopProfiles()
	interrupted := ctx.Err() != nil
	written := 0
	if outFile != nil {
		written = w.Count()
		if err := outFile.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	return res, written, interrupted, runErr
}

// exitOnRunError reports a run error — persistence failed mid-run, so
// it must not masquerade as success — after the caller has rendered
// whatever partial results completed.
func exitOnRunError(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
		os.Exit(1)
	}
}

func cmdList(s *aibench.Suite) {
	fmt.Printf("%-12s %-8s %-30s %-36s %s\n", "ID", "Suite", "Task", "Algorithm", "Target")
	for _, b := range s.All() {
		marker := " "
		if b.InSubset() {
			marker = "*"
		}
		fmt.Printf("%-12s %-8s %-30s %-36s %s %s\n", b.ID, b.Suite, b.Task, b.Algorithm, b.Target, marker)
	}
	fmt.Println("(* = AIBench subset member)")
}

func cmdRun(s *aibench.Suite, args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	epochs := fs.Int("epochs", 150, "maximum epochs (entire) or exact epochs (quasi)")
	seed := fs.Int64("seed", 42, "base seed; the session seed is derived deterministically")
	quasi := fs.Bool("quasi", false, "run a quasi-entire session (fixed epochs)")
	shards := fs.Int("shards", 0, "data-parallel shard workers (0 = serial; results are bitwise identical for any count)")
	backend := backendFlag(fs)
	kernel := kernelFlag(fs)
	out := outFlag(fs)
	opts := runOptsFlags(fs)
	id := parseWithID(fs, args)
	if id == "" {
		fmt.Fprintln(os.Stderr, "usage: aibench run <id> [-epochs N] [-seed S] [-quasi] [-shards N] [-backend B] [-kernel K] [-telemetry] [-out F]")
		os.Exit(2)
	}
	if s.Benchmark(id) == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (try `aibench list`)\n", id)
		os.Exit(1)
	}
	kind := aibench.EntireSession
	if *quasi {
		kind = aibench.QuasiEntireSession
	}
	res, written, interrupted, runErr := runPlan(s, aibench.Plan{
		Kind: aibench.RunSession, Benchmarks: []string{id}, Session: kind,
		Seed: *seed, Epochs: *epochs, Shards: *shards, Backend: *backend,
		Kernel: *kernel, Log: os.Stdout,
	}, *out, opts)
	if len(res.Sessions) == 0 || res.Sessions[0].ID == "" {
		exitOnRunError(runErr)
		fmt.Fprintln(os.Stderr, "interrupted before the session started")
		os.Exit(1)
	}
	r := res.Sessions[0]
	if r.FallbackReason != "" {
		fmt.Printf("(%s ran serial: %s)\n", r.ID, r.FallbackReason)
	}
	fmt.Printf("\n%s (%s): epochs=%d quality=%.4f target=%.4f reached=%v shards=%d kernel=%s\n",
		r.ID, r.Name, r.Epochs, r.FinalQuality, r.Target, r.ReachedGoal, r.Shards, r.Kernel)
	printTrace(res)
	exitOnRunError(runErr)
	if *out != "" {
		fmt.Printf("results streamed to %s (%d JSONL lines)\n", *out, written)
	}
	if r.Error != "" {
		fmt.Fprintf(os.Stderr, "%s failed after %d epochs: %s\n", r.ID, r.Epochs, r.Error)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "interrupted after %d epochs\n", r.Epochs)
		os.Exit(1)
	}
}

func cmdRunAll(s *aibench.Suite, args []string) {
	fs := flag.NewFlagSet("run-all", flag.ExitOnError)
	workers := fs.Int("workers", 0, "pool width (0 = GOMAXPROCS)")
	epochs := fs.Int("epochs", 150, "maximum epochs (entire) or exact epochs (quasi)")
	seed := fs.Int64("seed", 42, "base seed; per-benchmark seeds are derived deterministically")
	quasi := fs.Bool("quasi", false, "run quasi-entire sessions (fixed epochs)")
	shards := fs.Int("shards", 0, "data-parallel shard workers per session (0 = serial)")
	backend := backendFlag(fs)
	kernel := kernelFlag(fs)
	out := outFlag(fs)
	opts := runOptsFlags(fs)
	verbose := fs.Bool("v", false, "stream per-epoch progress from every session")
	fs.Parse(args)
	kind := aibench.EntireSession
	if *quasi {
		kind = aibench.QuasiEntireSession
	}
	width := *workers
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	plan := aibench.Plan{
		Kind: aibench.RunSession, Session: kind, Seed: *seed, Epochs: *epochs,
		Shards: *shards, Backend: *backend, Kernel: *kernel, Workers: *workers,
	}
	if *verbose {
		plan.Log = os.Stdout
	}

	start := time.Now()
	res, written, interrupted, runErr := runPlan(s, plan, *out, opts)
	elapsed := time.Since(start)
	if *verbose {
		fmt.Println()
	}
	aibench.RenderRunReport("sessions", os.Stdout, res.Records())
	reached, ran, ranEpochs, failed := 0, 0, 0, 0
	for _, r := range res.Sessions {
		if r.ID == "" {
			continue // session never launched (run interrupted)
		}
		ran++
		ranEpochs += r.Epochs
		if r.ReachedGoal {
			reached++
		}
		if r.Error != "" {
			failed++
			fmt.Fprintf(os.Stderr, "%s failed after %d epochs: %s\n", r.ID, r.Epochs, r.Error)
		}
	}
	fmt.Printf("\n%d/%d sessions reached their target in %s (workers=%d kernel=%s)\n",
		reached, ran, elapsed.Round(time.Millisecond), width, res.Meta.Kernel)
	printTrace(res)
	exitOnRunError(runErr)
	if *out != "" {
		fmt.Printf("results streamed to %s (%d JSONL lines)\n", *out, written)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d sessions failed; results above are partial\n", failed, ran)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "interrupted after %d epochs across %d sessions (%d sessions never launched)\n",
			ranEpochs, ran, len(res.Sessions)-ran)
		os.Exit(1)
	}
}

// cmdScaling sweeps data-parallel shard counts over the shardable
// benchmarks and prints time per epoch plus speedup versus one shard.
func cmdScaling(s *aibench.Suite, args []string) {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	shardsCSV := fs.String("shards", "1,2,4", "comma-separated shard counts to measure")
	epochs := fs.Int("epochs", 2, "epochs to time per point")
	seed := fs.Int64("seed", 42, "base seed")
	backend := backendFlag(fs)
	kernel := kernelFlag(fs)
	out := outFlag(fs)
	opts := runOptsFlags(fs)
	id := parseWithID(fs, args)
	var shards []int
	for _, tok := range strings.Split(*shardsCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad -shards value %q\n", tok)
			os.Exit(2)
		}
		shards = append(shards, n)
	}
	var ids []string
	if id != "" {
		b := s.Benchmark(id)
		if b == nil {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", id)
			os.Exit(1)
		}
		if !b.Shardable() {
			fmt.Fprintf(os.Stderr, "%s has no shardable train step\n", id)
			os.Exit(1)
		}
		ids = []string{id}
	}
	res, written, interrupted, runErr := runPlan(s, aibench.Plan{
		Kind: aibench.RunScaling, Benchmarks: ids, ShardSweep: shards,
		Epochs: *epochs, Seed: *seed, Backend: *backend, Kernel: *kernel,
	}, *out, opts)
	if len(res.Scaling) == 0 {
		if interrupted {
			exitOnRunError(runErr)
			fmt.Fprintln(os.Stderr, "interrupted before any scaling point was measured")
			os.Exit(1)
		}
		fmt.Println("no shardable benchmarks selected")
		exitOnRunError(runErr)
		return
	}
	aibench.RenderRunReport("scaling", os.Stdout, res.Records())
	fmt.Println("\n(identical losses at every shard count; speedup is pure scheduling gain)")
	printTrace(res)
	exitOnRunError(runErr)
	if *out != "" {
		fmt.Printf("results streamed to %s (%d JSONL lines)\n", *out, written)
	}
	if interrupted {
		points := 0
		for _, row := range res.Scaling {
			points += len(row.Points)
		}
		fmt.Fprintf(os.Stderr, "interrupted after %d epochs (%d scaling points measured); results above are partial\n",
			points**epochs, points)
		os.Exit(1)
	}
}

func cmdCharacterize(s *aibench.Suite, args []string) {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	gpu := fs.String("gpu", "xp", "device: xp (Titan XP) or rtx (Titan RTX)")
	workers := fs.Int("workers", 0, "pool width for `characterize all` (0 = GOMAXPROCS)")
	out := outFlag(fs)
	opts := runOptsFlags(fs)
	id := parseWithID(fs, args)
	if id == "" {
		fmt.Fprintln(os.Stderr, "usage: aibench characterize <id|all> [-gpu xp|rtx] [-workers N] [-out F]")
		os.Exit(2)
	}
	dev := aibench.TitanXP()
	if *gpu == "rtx" {
		dev = aibench.TitanRTX()
	}
	plan := aibench.Plan{Kind: aibench.RunCharacterize, Device: dev, Workers: *workers}
	if id != "all" {
		if s.Benchmark(id) == nil {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", id)
			os.Exit(1)
		}
		plan.Benchmarks = []string{id}
	}
	res, written, _, runErr := runPlan(s, plan, *out, opts)
	if id == "all" {
		aibench.RenderRunReport("characterizations", os.Stdout, res.Records())
		printTrace(res)
		exitOnRunError(runErr)
		if *out != "" {
			fmt.Printf("\nresults streamed to %s (%d JSONL lines)\n", *out, written)
		}
		return
	}
	if len(res.Characterizations) == 0 || res.Characterizations[0].ID == "" {
		fmt.Println("interrupted before the characterization started")
		exitOnRunError(runErr)
		os.Exit(1)
	}
	c := res.Characterizations[0]
	fmt.Printf("%s — %s on %s\n", c.ID, c.Task, dev.Name)
	fmt.Printf("  forward FLOPs: %.2f M   params: %.2f M   epochs-to-quality: %.1f\n", c.MFLOPs, c.MParams, c.Epochs)
	fmt.Printf("  occupancy=%.3f ipc=%.3f gld=%.3f gst=%.3f dram=%.3f\n",
		c.Metrics.AchievedOccupancy, c.Metrics.IPCEfficiency,
		c.Metrics.GldEfficiency, c.Metrics.GstEfficiency, c.Metrics.DramUtilization)
	fmt.Println("  runtime breakdown:")
	// Sort by descending share (category name breaks ties) so output is
	// reproducible run to run despite map iteration order.
	type catShare struct {
		cat   string
		share float64
	}
	shares := make([]catShare, 0, len(c.Shares))
	for cat, share := range c.Shares {
		shares = append(shares, catShare{string(cat), share})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].share != shares[j].share {
			return shares[i].share > shares[j].share
		}
		return shares[i].cat < shares[j].cat
	})
	for _, cs := range shares {
		fmt.Printf("    %-20s %5.1f%%\n", cs.cat, cs.share*100)
	}
	fmt.Println("  top hotspot functions:")
	for i, h := range c.Hotspots {
		if i >= 5 {
			break
		}
		fmt.Printf("    %-55s %5.1f%% (%d calls)\n", h.Name, h.Share*100, h.Calls)
	}
	printTrace(res)
	exitOnRunError(runErr)
	if *out != "" {
		fmt.Printf("results streamed to %s (%d JSONL lines)\n", *out, written)
	}
}

// cmdReplay simulates entire paper-scale sessions from the calibrated
// convergence distributions and the Table 6 cost model — the
// methodology's fast path for purchasing decisions.
func cmdReplay(s *aibench.Suite, args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "base seed; per-benchmark seeds are derived deterministically")
	out := outFlag(fs)
	opts := runOptsFlags(fs)
	id := parseWithID(fs, args)
	var ids []string
	if id != "" && id != "all" {
		if s.Benchmark(id) == nil {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", id)
			os.Exit(1)
		}
		ids = []string{id}
	}
	res, written, _, runErr := runPlan(s, aibench.Plan{
		Kind: aibench.RunReplay, Benchmarks: ids, Seed: *seed,
	}, *out, opts)
	aibench.RenderRunReport("replays", os.Stdout, res.Records())
	total := 0.0
	for _, r := range res.Replays {
		total += r.Hours
	}
	fmt.Printf("\ntotal replayed cost: %.2f h over %d sessions\n", total, len(res.Replays))
	printTrace(res)
	exitOnRunError(runErr)
	if *out != "" {
		fmt.Printf("results streamed to %s (%d JSONL lines)\n", *out, written)
	}
}

func cmdSubset(s *aibench.Suite) {
	chosen, table := s.SelectSubset()
	fmt.Printf("%-12s %-28s %-8s %-7s %-9s %s\n", "ID", "Task", "CV", "Metric", "Selected", "Rejection")
	for _, c := range table {
		cv := "N/A"
		if c.CV >= 0 {
			cv = fmt.Sprintf("%.2f%%", c.CV*100)
		}
		fmt.Printf("%-12s %-28s %-8s %-7v %-9v %s\n", c.ID, c.Task, cv, c.HasMetric, c.Selected, c.RejectionNote)
	}
	fmt.Print("\nselected subset: ")
	for _, b := range chosen {
		fmt.Printf("%s (%s)  ", b.ID, b.Task)
	}
	fmt.Println()
}

func cmdCosts(s *aibench.Suite) {
	c := s.Costs()
	fmt.Printf("AIBench full suite: %8.2f h\n", c.AIBenchFullHours)
	fmt.Printf("MLPerf suite:       %8.2f h\n", c.MLPerfHours)
	fmt.Printf("AIBench subset:     %8.2f h\n", c.SubsetHours)
	fmt.Printf("subset vs AIBench:  %8.1f%% saved (paper: 41%%)\n", c.SubsetVsAIBench*100)
	fmt.Printf("subset vs MLPerf:   %8.1f%% saved (paper: 63%%)\n", c.SubsetVsMLPerf*100)
	fmt.Printf("AIBench vs MLPerf:  %8.1f%% saved (paper: 37%%)\n", c.AIBenchVsMLPerf*100)
}

func cmdReport(s *aibench.Suite, args []string) {
	if len(args) < 1 {
		fmt.Fprintf(os.Stderr, "usage: aibench report <%v|all>\n", aibench.ReportNames())
		os.Exit(2)
	}
	names := args
	if args[0] == "all" {
		names = aibench.ReportNames()
	}
	for _, n := range names {
		if !s.Report(n, os.Stdout, aibench.TitanXP(), 1) {
			fmt.Fprintf(os.Stderr, "unknown report %q\n", n)
			os.Exit(1)
		}
		fmt.Println()
	}
}
