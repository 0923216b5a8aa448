package core

import (
	"context"
	"fmt"
	"io"
	"slices"

	"aibench/internal/dist"
	"aibench/internal/gpusim"
	"aibench/internal/telemetry"
	"aibench/internal/tensor"
)

// RunKind selects what executing a Plan means: the methodology's four
// run shapes share one engine instead of one ad-hoc entry point each.
type RunKind int

// The four run kinds a Plan can execute.
const (
	// RunSession trains real scaled sessions (entire or quasi-entire)
	// of the selected benchmarks.
	RunSession RunKind = iota
	// RunCharacterize profiles the paper-scale architectures on the
	// simulated device.
	RunCharacterize
	// RunScaling sweeps data-parallel shard counts and measures
	// wall-clock per epoch against the 1-shard baseline.
	RunScaling
	// RunReplay simulates entire paper-scale sessions from the
	// calibrated convergence distributions and the Table 6 cost model.
	RunReplay
)

// String names the run kind for error messages and run listings.
// (Persisted envelopes are tagged per record with RecordKind, which
// names the characterize kind's records "characterization".)
func (k RunKind) String() string {
	if k >= 0 && int(k) < len(runKindNames) {
		return runKindNames[k]
	}
	return fmt.Sprintf("RunKind(%d)", int(k))
}

// Plan declares what to run; NewRunner validates it up front — unknown
// benchmark ids, unknown kernels, and malformed sweeps are errors at
// build time, never panics mid-run — and every kind executes through
// the same context-aware engine with the same record sink.
type Plan struct {
	// Kind selects the run shape (sessions by default).
	Kind RunKind
	// Benchmarks selects by id (e.g. "DC-AI-C9"); empty selects every
	// registered benchmark.
	Benchmarks []string
	// Session distinguishes entire from quasi-entire training sessions
	// (RunSession only).
	Session SessionKind
	// Seed is the base seed; per-benchmark seeds are derived through
	// DeriveSeed, so results are independent of scheduling.
	Seed int64
	// Epochs caps an entire session, fixes a quasi-entire session, and
	// sets the epochs timed per scaling point (0 keeps each engine's
	// default).
	Epochs int
	// Shards is the data-parallel width of each training session
	// (RunSession; 0 = serial).
	Shards int
	// ShardSweep lists the shard counts a scaling run measures
	// (RunScaling; empty = 1,2,4).
	ShardSweep []int
	// Kernel names the compute kernel the run's tensors dispatch to:
	// "blocked" (the GEBP engine; what empty means) or "naive" (the
	// reference oracle). NewRunner resolves it to one tensor.Kernels
	// value that travels with the run — no run changes what another
	// dispatches to.
	Kernel string
	// Backend names the dist execution backend sharded training runs
	// on ("local", "process", ...; empty = local), selected from the
	// dist.Register registry exactly like kernels are. Backends are
	// bitwise-equivalent by contract — "process" isolates each replica
	// in a child process so a crash fails one benchmark instead of the
	// suite. Validated at build time. Applies to RunSession and
	// RunScaling.
	Backend string
	// Workers bounds the suite-level pool for sessions and
	// characterizations (<= 0 = GOMAXPROCS).
	Workers int
	// Device is the simulated GPU for characterizations (zero value =
	// TITAN XP, the paper's characterization device).
	Device gpusim.Device
	// Log receives per-epoch progress lines from training sessions.
	Log io.Writer
	// Telemetry turns on the run's tracing and metrics collection: the
	// engines emit a span tree plus deterministic counters (see
	// internal/telemetry's two-plane contract), attached to the
	// RunResult and delivered through the sink as trailing "trace" and
	// "runmetrics" records. The trace is the run's own: traced and
	// untraced runs overlap in one process freely, and each trace is
	// byte-identical to the one the plan produces alone.
	Telemetry bool
}

// RunMeta identifies the run that produced a persisted record: the
// envelope's "run" object.
type RunMeta struct {
	// SuiteSHA fingerprints the benchmark roster (Registry.SHA), so a
	// replayed stream can be matched to the suite revision that wrote it.
	SuiteSHA string `json:"suite_sha"`
	Seed     int64  `json:"seed"`
	Kernel   string `json:"kernel"`
	Shards   int    `json:"shards"`
	// Backend is the dist execution backend the run selected; empty
	// means the default local backend (kept empty rather than
	// normalized so default-run envelopes are byte-stable across
	// releases).
	Backend string `json:"backend,omitempty"`
	// Started is the wall-clock start of the run in RFC 3339, stamped
	// by the caller that opens the stream (empty in library use).
	Started string `json:"started,omitempty"`
}

// RecordKind tags a Record's payload; the envelope's "kind" field.
type RecordKind string

// The persisted record kinds.
const (
	KindSession          RecordKind = "session"
	KindCharacterization RecordKind = "characterization"
	KindScaling          RecordKind = "scaling"
	KindReplay           RecordKind = "replay"
	// KindTrace carries a telemetry run's deterministic plane (span tree
	// + counters); KindRunMetrics its wall-clock plane. A telemetry run
	// emits one of each after its result records.
	KindTrace      RecordKind = "trace"
	KindRunMetrics RecordKind = "runmetrics"
)

// Record is the typed union every run kind emits through the sink:
// exactly one payload field matching Kind is set.
type Record struct {
	Kind             RecordKind
	Session          *SessionResult
	Characterization *Characterization
	Scaling          *ScalingRow
	Replay           *ReplaySession
	Trace            *telemetry.Trace
	RunMetrics       *telemetry.RunMetrics
	// Run identifies the run that produced the record (backend, kernel,
	// seed, ...). Stamped by RunResult.Records for live runs and by
	// results.Read from the envelope header for rebuilt streams, so
	// renderers can show run-level columns either way; nil on records
	// from legacy bare-JSON streams.
	Run *RunMeta
}

// Payload returns the record's typed data for encoding; nil when the
// field matching Kind is unset.
func (r Record) Payload() any {
	switch r.Kind {
	case KindSession:
		if r.Session != nil {
			return r.Session
		}
	case KindCharacterization:
		if r.Characterization != nil {
			return r.Characterization
		}
	case KindScaling:
		if r.Scaling != nil {
			return r.Scaling
		}
	case KindReplay:
		if r.Replay != nil {
			return r.Replay
		}
	case KindTrace:
		if r.Trace != nil {
			return r.Trace
		}
	case KindRunMetrics:
		if r.RunMetrics != nil {
			return r.RunMetrics
		}
	}
	return nil
}

// RunResult collects a run's records; only the slice matching the
// plan's kind is populated. Session and characterization slots align
// with the plan's benchmark order, so a cancelled run leaves
// zero-valued (empty-ID) slots for work that never launched.
type RunResult struct {
	Kind RunKind
	// Meta identifies the run (suite SHA, seed, kernel, shards,
	// backend); Records stamps it on every flattened record so
	// renderers see the same run header live as they do rebuilding
	// from a persisted stream.
	Meta              RunMeta
	Sessions          []SessionResult
	Characterizations []Characterization
	Scaling           []ScalingRow
	Replays           []ReplaySession
	// Trace and Metrics carry the run's two telemetry planes; nil unless
	// the plan set Telemetry.
	Trace   *telemetry.Trace
	Metrics *telemetry.RunMetrics
}

// Records flattens the result into sink-shaped records, skipping
// zero-valued slots of sessions that never launched.
func (r *RunResult) Records() []Record {
	var out []Record
	for i := range r.Sessions {
		if r.Sessions[i].ID != "" {
			out = append(out, Record{Kind: KindSession, Session: &r.Sessions[i]})
		}
	}
	for i := range r.Characterizations {
		if r.Characterizations[i].ID != "" {
			out = append(out, Record{Kind: KindCharacterization, Characterization: &r.Characterizations[i]})
		}
	}
	for i := range r.Scaling {
		out = append(out, Record{Kind: KindScaling, Scaling: &r.Scaling[i]})
	}
	for i := range r.Replays {
		out = append(out, Record{Kind: KindReplay, Replay: &r.Replays[i]})
	}
	if r.Trace != nil {
		out = append(out, Record{Kind: KindTrace, Trace: r.Trace})
	}
	if r.Metrics != nil {
		out = append(out, Record{Kind: KindRunMetrics, RunMetrics: r.Metrics})
	}
	for i := range out {
		out[i].Run = &r.Meta
	}
	return out
}

// put files a record the suite loop produced for the plan's i-th
// benchmark: sessions and characterizations into their slot, scaling
// rows and replays appended (their loop runs in plan order).
func (r *RunResult) put(i int, rec Record) {
	switch rec.Kind {
	case KindSession:
		r.Sessions[i] = *rec.Session
	case KindCharacterization:
		r.Characterizations[i] = *rec.Characterization
	case KindScaling:
		r.Scaling = append(r.Scaling, *rec.Scaling)
	case KindReplay:
		r.Replays = append(r.Replays, *rec.Replay)
	}
}

// Runner executes a validated Plan. Build one with NewRunner.
type Runner struct {
	plan Plan
	reg  *Registry
	bs   []*Benchmark
	// run is what every instance an untraced Run builds is placed
	// under: the kernels Plan.Kernel resolved to at build time, no
	// counters. A traced Run adds its tracer's.
	run tensor.Run
}

// kernelName is the name the plan's kernel goes by: the explicit one,
// else tensor.DefaultKernel.
func (p Plan) kernelName() string {
	if p.Kernel == "" {
		return tensor.DefaultKernel
	}
	return p.Kernel
}

// backendName is the registered name the plan's dist backend goes by.
func (p Plan) backendName() string {
	if p.Backend == "" {
		return "local"
	}
	return p.Backend
}

// NewRunner validates the plan against the registry and returns the
// runner, or an error naming exactly what is wrong — unknown benchmark
// ids, an unknown kernel, an out-of-range kind, or a malformed shard
// sweep. Nothing global is touched, here or in Run.
func NewRunner(reg *Registry, p Plan) (*Runner, error) {
	if reg == nil {
		return nil, fmt.Errorf("core: NewRunner: nil registry")
	}
	switch p.Kind {
	case RunSession, RunCharacterize, RunScaling, RunReplay:
	default:
		return nil, fmt.Errorf("core: Plan.Kind %d is not a run kind", int(p.Kind))
	}
	if p.Kind == RunSession {
		switch p.Session {
		case EntireSession, QuasiEntireSession:
		default:
			return nil, fmt.Errorf("core: Plan.Session %d is not a session kind", int(p.Session))
		}
	}
	var bs []*Benchmark
	if len(p.Benchmarks) == 0 {
		bs = reg.All()
	} else {
		for _, id := range p.Benchmarks {
			b := reg.ByID(id)
			if b == nil {
				return nil, fmt.Errorf("core: Plan.Benchmarks: unknown benchmark %q", id)
			}
			bs = append(bs, b)
		}
	}
	if p.Backend != "" && !dist.Known(p.Backend) {
		return nil, fmt.Errorf("core: Plan.Backend: unknown dist backend %q (have %v)", p.Backend, dist.Names())
	}
	kernels, err := tensor.ResolveKernels(p.kernelName())
	if err != nil {
		return nil, fmt.Errorf("core: Plan.Kernel: %v", err)
	}
	if p.Shards < 0 {
		return nil, fmt.Errorf("core: Plan.Shards: %d < 0", p.Shards)
	}
	if p.Epochs < 0 {
		return nil, fmt.Errorf("core: Plan.Epochs: %d < 0", p.Epochs)
	}
	if p.Kind == RunScaling {
		if len(p.ShardSweep) == 0 {
			p.ShardSweep = []int{1, 2, 4}
		}
		for _, n := range p.ShardSweep {
			if n < 1 {
				return nil, fmt.Errorf("core: Plan.ShardSweep: shard count %d < 1", n)
			}
		}
	}
	if p.Device.Name == "" {
		p.Device = wireDevices[0]
	}
	return &Runner{plan: p, reg: reg, bs: bs, run: tensor.Run{Kernels: kernels}}, nil
}

// Plan returns the validated plan (defaults filled in).
func (r *Runner) Plan() Plan { return r.plan }

// Benchmarks returns the resolved benchmark selection in plan order.
func (r *Runner) Benchmarks() []*Benchmark {
	return append([]*Benchmark(nil), r.bs...)
}

// Meta describes the run for result envelopes. The kernel is the one
// the run dispatches to; Started is left to the caller that opens a
// stream.
func (r *Runner) Meta() RunMeta {
	return RunMeta{
		SuiteSHA: r.reg.SHA(),
		Seed:     r.plan.Seed,
		Kernel:   r.run.Kernels.Name(),
		Shards:   r.plan.Shards,
		Backend:  r.plan.Backend,
	}
}

// Run executes the plan under ctx. Every produced record is delivered
// to sink (serialized calls, completion order) as it completes, so long
// runs persist partial results; a sink error cancels the remaining work
// and is returned (work in flight at that moment is still delivered:
// the sink sees every record the RunResult holds). Cancelling ctx stops
// cleanly — no new work launches, running sessions stop at their next
// epoch boundary — and is not an error: the partial RunResult is
// returned with zero-valued slots for work that never ran. A nil sink
// just collects. The run's kernels and,
// when it is traced, its counters ride on the context as one value to
// every place an instance is built (the serial session path, the dist
// backends), so concurrent Runs — under different kernels, traced or
// not — never see each other.
func (r *Runner) Run(ctx context.Context, sink func(Record) error) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &RunResult{Kind: r.plan.Kind, Meta: r.Meta()}
	if !r.plan.Telemetry {
		err := r.runKind(tensor.WithRun(ctx, &r.run), sink, nil, res)
		return res, err
	}

	tr := telemetry.Start(r.plan.Kind.String())
	ctx = tensor.WithRun(ctx, &tensor.Run{Kernels: r.run.Kernels, Counters: tr.Counters()})
	counted := sink
	if sink != nil {
		// Count records after their sink accepted them, through the
		// wrapper, so the trailing trace/runmetrics records (emitted via
		// the raw sink below) don't count themselves.
		counted = func(rec Record) error {
			if err := sink(rec); err != nil {
				return err
			}
			tr.Counters().Count(telemetry.CounterSinkRecords, 1)
			return nil
		}
	}
	err := r.runKind(ctx, counted, tr.Root(), res)
	res.Trace, res.Metrics = tr.Stop()
	if err != nil || sink == nil {
		return res, err
	}
	if serr := sink(Record{Kind: KindTrace, Trace: res.Trace}); serr != nil {
		return res, serr
	}
	if serr := sink(Record{Kind: KindRunMetrics, RunMetrics: res.Metrics}); serr != nil {
		return res, serr
	}
	return res, nil
}

// runKind runs the plan's kind through the suite loop, hanging
// telemetry spans under root (nil when telemetry is off) and filling
// res in place. A kind is its per-benchmark body: what it measures on
// one benchmark, returned as the Record to keep. Sessions and
// characterizations pool across Plan.Workers into slots aligned with
// the plan's benchmark order; a sweep wall-clocks and a replay is
// instant, so both run one benchmark at a time into compact rows.
func (r *Runner) runKind(ctx context.Context, sink func(Record) error, root *telemetry.Span, res *RunResult) error {
	p := r.plan
	switch p.Kind {
	case RunSession:
		if p.Log != nil {
			p.Log = &syncWriter{w: p.Log}
		}
		res.Sessions = make([]SessionResult, len(r.bs))
		return each(ctx, r.bs, p.Workers, root, sink, res, func(ctx context.Context, b *Benchmark, span *telemetry.Span) (Record, error) {
			sr, err := b.runSession(ctx, p, DeriveSeed(p.Seed, b.ID), span)
			return Record{Kind: KindSession, Session: &sr}, err
		})
	case RunCharacterize:
		res.Characterizations = make([]Characterization, len(r.bs))
		return each(ctx, r.bs, p.Workers, root, sink, res, func(_ context.Context, b *Benchmark, _ *telemetry.Span) (Record, error) {
			c := b.Characterize(p.Device)
			return Record{Kind: KindCharacterization, Characterization: &c}, nil
		})
	case RunScaling:
		// A sweep has nothing to measure on a benchmark without a sharded
		// train step: it is left out of the loop, so a trace lists only
		// what was measured.
		shardable := slices.DeleteFunc(slices.Clone(r.bs), func(b *Benchmark) bool { return !b.Shardable() })
		return each(ctx, shardable, 1, root, sink, res, func(ctx context.Context, b *Benchmark, span *telemetry.Span) (Record, error) {
			return b.runSweep(ctx, p, DeriveSeed(p.Seed, b.ID), span)
		})
	case RunReplay:
		return each(ctx, r.bs, 1, root, sink, res, func(_ context.Context, b *Benchmark, _ *telemetry.Span) (Record, error) {
			rs := b.RunReplaySession(DeriveSeed(p.Seed, b.ID))
			return Record{Kind: KindReplay, Replay: &rs}, nil
		})
	}
	return fmt.Errorf("core: unreachable run kind %v", p.Kind) // NewRunner validated Kind
}
