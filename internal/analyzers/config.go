package analyzers

// The scope config: which packages each invariant binds. One shared
// table so the analyzers, the README, and the contract docs agree on
// what "deterministic" and "result-affecting" mean, and so adding a
// package to the suite opts it into the right invariants in one place.
//
// Scope is matched on import paths. Suppression inside an in-scope
// package is per-line via //lint:allow (see the package doc); whole
// packages opt in or out only here, with the rationale next to the
// entry.

// deterministicPackages compute record data and must be bitwise
// reproducible from the benchmark seed alone: no wall-clock, no
// process-global randomness. (internal/parallel and internal/gpusim
// are excluded: parallel only schedules — its determinism is the
// callers' seed discipline — and gpusim is a pure function of the
// model spec with no randomness to misuse.)
var deterministicPackages = map[string]bool{
	"aibench/internal/tensor":   true,
	"aibench/internal/autograd": true,
	"aibench/internal/nn":       true,
	"aibench/internal/optim":    true,
	"aibench/internal/models":   true,
	"aibench/internal/data":     true, // synthetic datasets: every draw comes from the seeded stream
	"aibench/internal/stats":    true, // quasi-replay sampling: seeded streams only
	"aibench/internal/dist":     true,
	"aibench/internal/core":     true,
	// telemetry's deterministic plane (span tree, counters) feeds trace
	// records; its wall-clock plane lives in wallclock.go behind
	// per-line //lint:allow suppressions with the rationale inline.
	"aibench/internal/telemetry": true,
}

// resultAffectingPackages produce, persist, or render result records;
// any map iteration here can leak random ordering into a report line,
// a JSONL stream, or a float accumulation and break the byte-identical
// replay-rebuild contract.
var resultAffectingPackages = map[string]bool{
	"aibench":                       true,
	"aibench/internal/core":         true, // engines + all report renderers
	"aibench/internal/results":      true,
	"aibench/internal/dist":         true,
	"aibench/internal/models":       true,
	"aibench/internal/telemetry":    true, // trace records are persisted and byte-diffed in CI
	"aibench/internal/server":       true, // streamed/cached envelope bodies are byte-compared on replay
	"aibench/cmd/aibench":           true,
	"aibench/cmd/aibench-benchjson": true,
}

// enginePackages run the epoch/session loops the Plan Runner's
// cancellation contract binds (ctx checked at every epoch boundary).
var enginePackages = map[string]bool{
	"aibench/internal/core":   true,
	"aibench/internal/dist":   true,
	"aibench":                 true, // facade wrappers over the Runner
	"aibench/internal/server": true, // each job drives Runner.Run on its own goroutine; the job ctx is the cancellation signal
}

// sinkPackages move records through failable sinks: the engines that
// call them, the results package that implements them, and the CLIs
// that wire them to files.
var sinkPackages = map[string]bool{
	"aibench":                       true,
	"aibench/internal/core":         true,
	"aibench/internal/dist":         true,
	"aibench/internal/results":      true,
	"aibench/internal/server":       true, // tees envelope streams to clients and the result cache
	"aibench/cmd/aibench":           true,
	"aibench/cmd/aibench-benchjson": true,
}

// tensorPackage hosts the kernel dispatch; it is the one place
// hand-rolled GEMM/element-wise loops are the point rather than a
// bypass.
const tensorPackage = "aibench/internal/tensor"

// autogradPackage builds the training graphs and nnPackage the layers
// that compose them: with tensorPackage, the packages whose op bodies
// allocate step-scoped tensors and are bound by the one-allocator rule
// (heapalloc). A layer constructor has no tensor operand, so it builds
// its parameters on the heap out of the rule's scope.
const (
	autogradPackage = "aibench/internal/autograd"
	nnPackage       = "aibench/internal/nn"
)

// dataPackage holds the synthetic dataset generators, whose draws
// take the arena their tensors come from (heapalloc).
const dataPackage = "aibench/internal/data"

func inOpPackages(path string) bool {
	return path == tensorPackage || path == autogradPackage || path == nnPackage
}

// inHeapallocScope is heapalloc's scope: the op packages and the
// dataset draws.
func inHeapallocScope(path string) bool { return inOpPackages(path) || path == dataPackage }

func inDeterministic(path string) bool { return deterministicPackages[path] }
func inResultAffecting(path string) bool {
	return resultAffectingPackages[path]
}
func inEngine(path string) bool { return enginePackages[path] }
func inSink(path string) bool   { return sinkPackages[path] }
func outsideTensor(path string) bool {
	return path != tensorPackage
}
