// Package aibench is the public API of the AIBench Training
// reproduction: a balanced industry-standard AI training benchmark
// suite (Tang et al., ISPASS 2021) implemented as a pure-Go library.
//
// The suite contains the seventeen AIBench component benchmarks
// (DC-AI-C1..C17) and the seven MLPerf Training benchmarks the paper
// compares against. Each benchmark couples a scaled, executable model —
// trained end-to-end through the library's own tensor/autograd/NN
// stack on synthetic datasets — with the paper-scale architecture used
// for analytic characterization and GPU-simulator profiling.
//
// Typical use — declare a Plan, validate it into a Runner, run it:
//
//	suite := aibench.NewSuite()
//	runner, err := suite.NewRunner(aibench.Plan{
//	    Kind:       aibench.RunSession,
//	    Benchmarks: []string{"DC-AI-C1"},
//	    Session:    aibench.EntireSession,
//	    Seed:       42,
//	})
//	if err != nil { ... }
//	res, err := runner.Run(context.Background(), nil)
//	fmt.Printf("reached %v in %d epochs\n", res.Sessions[0].ReachedGoal, res.Sessions[0].Epochs)
//
// The same Plan shape executes every run kind of the methodology —
// training sessions, characterizations, scaling sweeps, and replayed
// paper-scale sessions — through one context-aware engine, and every
// record it emits can be persisted as versioned JSONL and replayed
// into reports without re-running anything (`aibench report -from`).
//
// The report renderers regenerate every table and figure of the
// paper's evaluation section; see Suite.Report and `aibench report`.
package aibench

import (
	"io"

	"aibench/internal/core"
	"aibench/internal/dist"
	"aibench/internal/gpusim"
	"aibench/internal/results"
	"aibench/internal/telemetry"
	"aibench/internal/tensor"
)

// Suite is the top-level handle: the benchmark registry plus the
// methodology operations (sessions, subset selection, characterization,
// cost accounting, reporting).
type Suite struct {
	reg *core.Registry
}

// NewSuite builds the suite with all 24 benchmarks registered.
func NewSuite() *Suite { return &Suite{reg: core.NewRegistry()} }

// Re-exported core types.
type (
	// Benchmark is one component benchmark (metadata + scaled workload).
	Benchmark = core.Benchmark
	// SessionResult reports a scaled training session.
	SessionResult = core.SessionResult
	// Characterization is one benchmark's workload characterization.
	Characterization = core.Characterization
	// ClusterResult is the Fig 4 clustering outcome.
	ClusterResult = core.ClusterResult
	// CostSummary aggregates the benchmarking-cost comparison.
	CostSummary = core.CostSummary
	// VariationResult is one Table 5 run-to-run variation row.
	VariationResult = core.VariationResult
	// SubsetCandidate is one row of the subset-selection scoring.
	SubsetCandidate = core.SubsetCandidate
	// ScalingRow is one benchmark's data-parallel scaling measurement.
	ScalingRow = core.ScalingRow
	// ScalingPoint is one shard count of a scaling measurement.
	ScalingPoint = core.ScalingPoint
	// ReplaySession is one simulated paper-scale session.
	ReplaySession = core.ReplaySession
	// Device describes a simulated GPU.
	Device = gpusim.Device

	// Plan declares what to run: benchmark selection, run kind, epochs,
	// seed, shards, kernel, workers. Validate it with Suite.NewRunner.
	Plan = core.Plan
	// Runner executes a validated Plan through one context-aware engine.
	Runner = core.Runner
	// RunKind selects a Plan's run shape.
	RunKind = core.RunKind
	// RunResult collects the records a run produced.
	RunResult = core.RunResult
	// Record is the typed union of everything a run emits.
	Record = core.Record
	// RecordKind tags a Record's payload.
	RecordKind = core.RecordKind
	// RunMeta identifies the run behind a persisted result envelope.
	RunMeta = core.RunMeta
	// Trace is a telemetry run's deterministic plane: the canonical span
	// tree plus the counter snapshot, byte-identical across seeded runs.
	Trace = telemetry.Trace
	// RunMetrics is a telemetry run's wall-clock plane (span timings,
	// pool stats, GC/heap gauges), excluded from result comparison.
	RunMetrics = telemetry.RunMetrics
)

// The run kinds a Plan can execute.
const (
	// RunSession trains real scaled sessions.
	RunSession = core.RunSession
	// RunCharacterize profiles the paper-scale architectures.
	RunCharacterize = core.RunCharacterize
	// RunScaling sweeps data-parallel shard counts.
	RunScaling = core.RunScaling
	// RunReplay simulates entire paper-scale sessions.
	RunReplay = core.RunReplay
)

// The persisted record kinds.
const (
	KindSession          = core.KindSession
	KindCharacterization = core.KindCharacterization
	KindScaling          = core.KindScaling
	KindReplay           = core.KindReplay
	KindTrace            = core.KindTrace
	KindRunMetrics       = core.KindRunMetrics
)

// NewRunner validates the plan against the suite's registry and
// returns a Runner for it: unknown benchmark ids, unknown kernels, and
// malformed sweeps are build-time errors, never mid-run panics.
func (s *Suite) NewRunner(p Plan) (*Runner, error) { return core.NewRunner(s.reg, p) }

// SHA fingerprints the registered benchmark roster (ids, tasks, specs)
// — the suite_sha of every persisted result envelope and the header of
// `aibench version`.
func (s *Suite) SHA() string { return s.reg.SHA() }

// Session kinds.
const (
	// EntireSession trains the scaled model until it reaches its quality
	// target.
	EntireSession = core.EntireSession
	// QuasiEntireSession trains a fixed number of epochs.
	QuasiEntireSession = core.QuasiEntireSession
)

// KernelNames lists the compute kernels ("blocked", "naive"); a run
// selects one through Plan.Kernel. See the README's kernel
// architecture section.
func KernelNames() []string { return tensor.KernelNames() }

// DefaultKernel is the kernel a Plan with an empty Kernel runs on.
const DefaultKernel = tensor.DefaultKernel

// TitanXP returns the characterization device of Table 4.
func TitanXP() Device { return gpusim.TitanXP() }

// TitanRTX returns the training-session device of Table 4.
func TitanRTX() Device { return gpusim.TitanRTX() }

// AIBench returns the seventeen AIBench component benchmarks in Table 3
// order.
func (s *Suite) AIBench() []*Benchmark { return s.reg.AIBench }

// MLPerf returns the seven MLPerf comparison benchmarks.
func (s *Suite) MLPerf() []*Benchmark { return s.reg.MLPerf }

// All returns every registered benchmark.
func (s *Suite) All() []*Benchmark { return s.reg.All() }

// Benchmark looks up a benchmark by id (e.g. "DC-AI-C9"); nil if absent.
func (s *Suite) Benchmark(id string) *Benchmark { return s.reg.ByID(id) }

// Subset returns the paper's minimum subset: Image Classification,
// Object Detection, and Learning to Rank.
func (s *Suite) Subset() []*Benchmark { return s.reg.Subset() }

// SelectSubset re-derives the subset from the Section 5.4.1 criteria and
// returns the per-benchmark scoring table.
func (s *Suite) SelectSubset() ([]*Benchmark, []SubsetCandidate) { return s.reg.SelectSubset() }

// Costs computes the benchmarking-cost comparison (the 41%/63%/37%
// savings of Section 5.4.2).
func (s *Suite) Costs() CostSummary { return s.reg.Costs() }

// Characterize profiles one benchmark's paper-scale model on the device.
func (s *Suite) Characterize(id string, dev Device) Characterization {
	return s.Benchmark(id).Characterize(dev)
}

// BackendNames lists the registered dist execution backends ("local",
// "process", ...). Plan.Backend selects one by name for sharded
// sessions and scaling sweeps; backends are bitwise-equivalent by
// contract, differing only in where replica compute runs and how big
// the failure domain is.
func BackendNames() []string { return dist.Names() }

// RunDistWorker serves one replica of the process dist backend: it
// answers the parent engine's frame-protocol requests on r — construct
// the workload, compute a phase over this rank's grains, apply reduced
// gradients — writing responses to w until the parent closes the
// stream. The aibench CLI routes its hidden `worker` subcommand here;
// an embedder whose own binary hosts the suite must do the same (the
// process backend re-execs os.Executable with the single argument
// "worker" and the AIBENCH_DIST_WORKER environment variable set).
func RunDistWorker(r io.Reader, w io.Writer) error { return dist.WorkerMain(r, w) }

// DeriveSeed is the deterministic per-benchmark seed derivation suite
// runs apply to their base seed: it depends only on (base, id), never
// on scheduling, so serial and pooled suite runs train each benchmark
// identically.
func DeriveSeed(base int64, id string) int64 { return core.DeriveSeed(base, id) }

// Cluster reproduces Fig 4: t-SNE + k-means over the seventeen
// benchmarks' computation and memory access patterns.
func (s *Suite) Cluster(k int, seed int64) ClusterResult { return s.reg.ClusterBenchmarks(k, seed) }

// Report renders one named table or figure ("table1".."table7",
// "figure1a".."figure7") to w; it reports whether the name was known.
func (s *Suite) Report(name string, w io.Writer, dev Device, seed int64) bool {
	switch name {
	case "table1":
		core.RenderTable1(w)
	case "table2":
		core.RenderTable2(w)
	case "table3":
		s.reg.RenderTable3(w)
	case "table4":
		core.RenderTable4(w)
	case "table5":
		s.reg.RenderTable5(w, seed)
	case "table6":
		s.reg.RenderTable6(w, gpusim.TitanRTX())
	case "table7":
		s.reg.RenderTable7(w, dev)
	case "figure1a":
		s.reg.RenderFigure1a(w, dev)
	case "figure1b", "figure3":
		s.reg.RenderFigure3(w, dev)
	case "figure2":
		s.reg.RenderFigure2(w, dev)
	case "figure4":
		s.reg.RenderFigure4(w, seed)
	case "figure5":
		s.reg.RenderFigure5(w, dev)
	case "figure6":
		s.reg.RenderFigure6(w, dev)
	case "figure7":
		s.reg.RenderFigure7(w, dev)
	default:
		return false
	}
	return true
}

// ResultWriter streams run records to an io.Writer as versioned JSONL
// envelopes ({"v":1,"kind":…,"run":{…},"data":{…}}) that ReadResults
// and `aibench report -from` decode back. Writes are serialized, so
// its Write method can back a Runner sink directly:
//
//	w := aibench.NewResultWriter(file, runner.Meta())
//	res, err := runner.Run(ctx, w.Write)
type ResultWriter struct {
	w *results.Writer
}

// NewResultWriter wraps w; every envelope carries meta as its run
// identity (Runner.Meta plus a caller-stamped start time).
func NewResultWriter(w io.Writer, meta RunMeta) *ResultWriter {
	return &ResultWriter{w: results.NewWriter(w, meta)}
}

// Write envelopes one record and appends it as a JSONL line.
func (w *ResultWriter) Write(rec Record) error { return w.w.Write(rec) }

// Count returns how many records have been written.
func (w *ResultWriter) Count() int { return w.w.Count() }

// ResultStream is a decoded JSONL result stream.
type ResultStream struct {
	// Records holds every decoded record in file order.
	Records []Record
	// Runs lists the distinct run identities seen, in first-seen order.
	Runs []RunMeta
	// Skipped counts records dropped for carrying an unknown envelope
	// version or record kind — forward compatibility, not an error.
	Skipped int
	// Truncated reports that the stream's final line was undecodable
	// after at least one record decoded cleanly — the shape a dropped
	// client leaves when a server response is cut mid-envelope. The
	// partial tail is discarded; every earlier record is kept.
	Truncated bool
}

// ReadResults decodes a JSONL result stream: enveloped records of a
// known version and kind, with unknown versions/kinds skipped and
// pre-envelope bare SessionResult lines still accepted. Feed
// ResultStream.Records to RenderRunReport to rebuild reports without
// re-running anything.
func ReadResults(r io.Reader) (*ResultStream, error) {
	s, err := results.Read(r)
	if err != nil {
		return nil, err
	}
	return &ResultStream{Records: s.Records, Runs: s.Runs, Skipped: s.Skipped, Truncated: s.Truncated}, nil
}

// RunReportNames lists the run reports rebuildable from persisted
// records ("sessions", "characterizations", "scaling", "replays").
func RunReportNames() []string { return core.RunReportNames() }

// RunReportKind maps a run-report name to the record kind it renders;
// ok is false for unknown names.
func RunReportKind(name string) (RecordKind, bool) { return core.RunReportKind(name) }

// RenderRunReport renders one named run report ("sessions",
// "characterizations", "scaling", "replays") from a record stream,
// restoring canonical registry order first; it reports whether the
// name was known. The live CLI and `aibench report -from` both render
// through this function, so a report rebuilt from persisted JSONL is
// byte-identical to its live-run output.
func RenderRunReport(name string, w io.Writer, recs []Record) bool {
	return core.RenderRunRecords(name, w, recs)
}

// ReportNames lists every renderable table/figure name.
func ReportNames() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"figure1a", "figure2", "figure3", "figure4", "figure5", "figure6", "figure7",
	}
}
