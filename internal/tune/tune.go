// Package tune searches the blocked kernel's configuration space on the
// current machine and persists the winner as a versioned `tuneconfig`
// result envelope.
//
// The search is a deterministic timed sweep of the GEBP engine's two
// parameters (its one 2×4 micro-kernel is not among them): a fixed menu
// of cache-block sizes, measured against canonical shapes for each
// GEMM shape class (square, skinny, fat), then a fixed menu of parallel thresholds, in a fixed order with ties broken
// by menu position. Only the *timings* are machine-dependent; the
// candidate set, visit order, and tie-breaks never are, so two runs on
// the same machine explore identically and the persisted Config fully
// reproduces the decision.
//
// Timing necessarily reads the wall clock, which is why this package
// lives outside the deterministic-scope lint set: a tuning config can
// never change results (every tensor.TileConfig yields bitwise-equal
// output — that is the GEBP engine's contract), only speed. The
// envelope key is (suite_sha, GOARCH, GOMAXPROCS, kernel, op,
// shape_class): suite_sha rides in the envelope's RunMeta, the rest in
// the Config payload.
package tune

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"aibench/internal/tensor"
)

// OpGEMM is the op every tuned entry names.
const OpGEMM = "gemm"

// Entry is one (op, shape-class) winner: the blocks that measured
// fastest, with the observed throughput for the class's largest shape.
// Entries written while the sweep also chose a micro-kernel carry
// "mr", "nr" and "k_unroll" keys; decoding ignores them. Their
// "conv2d" entries name no class the engine reads and are skipped.
type Entry struct {
	Op         string  `json:"op"`
	ShapeClass string  `json:"shape_class"`
	BlockM     int     `json:"block_m"`
	BlockN     int     `json:"block_n"`
	GFLOPS     float64 `json:"gflops"`
}

// TileConfig converts the entry back to the tensor layer's config.
func (e Entry) TileConfig() tensor.TileConfig {
	return tensor.TileConfig{BlockM: e.BlockM, BlockN: e.BlockN}
}

// Config is the persisted payload of a `tuneconfig` envelope: the
// machine key (GOARCH, GOMAXPROCS), the kernel it parameterizes,
// the swept parallel threshold, and one Entry per (op, shape-class).
type Config struct {
	Kernel     string  `json:"kernel"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Threshold  int     `json:"parallel_threshold"`
	Entries    []Entry `json:"entries"`
}

// Tuning converts the config into the tensor layer's Tuning, starting
// from the builtin defaults so classes a config does not cover keep
// working; a zero (absent) threshold keeps the builtin one, a negative
// one is an error. Entries with an unknown (op, shape_class) are
// skipped — configs written by a newer suite stay loadable — but
// entries that *are* recognized must validate.
func (c *Config) Tuning() (tensor.Tuning, error) {
	t := tensor.DefaultTuning()
	// "tuned" is the name configs were written under before the GEBP
	// engine had one; they still load.
	if c.Kernel != "blocked" && c.Kernel != "tuned" {
		return t, fmt.Errorf(`tune: config tunes kernel %q, not "blocked"`, c.Kernel)
	}
	switch {
	case c.Threshold < 0:
		return t, fmt.Errorf("tune: parallel_threshold %d must not be negative", c.Threshold)
	case c.Threshold > 0:
		t.Threshold = c.Threshold
	}
	for _, e := range c.Entries {
		var dst *tensor.TileConfig
		switch {
		case e.Op == OpGEMM && e.ShapeClass == tensor.ShapeSquare:
			dst = &t.Square
		case e.Op == OpGEMM && e.ShapeClass == tensor.ShapeSkinny:
			dst = &t.Skinny
		case e.Op == OpGEMM && e.ShapeClass == tensor.ShapeFat:
			dst = &t.Fat
		default:
			continue
		}
		cfg := e.TileConfig()
		if err := cfg.Validate(); err != nil {
			return t, fmt.Errorf("tune: %s/%s entry: %v", e.Op, e.ShapeClass, err)
		}
		*dst = cfg
	}
	if err := t.Validate(); err != nil {
		return t, fmt.Errorf("tune: %v", err)
	}
	return t, nil
}

// Options control a Search sweep.
type Options struct {
	// Quick shrinks the shape menu and round count for tests and smoke
	// runs (~100× less work than the full sweep; same code paths, same
	// determinism of the candidate walk).
	Quick bool
	// Rounds is how many timed repetitions each (candidate, shape) pair
	// gets after one warmup; the minimum is kept. 0 means the default
	// (2, or 1 with Quick).
	Rounds int
	// Log, when non-nil, receives one line per measured class/candidate
	// for watching a long sweep.
	Log io.Writer
}

// blockMenu is the swept tile-size menu, in visit order.
func blockMenu() []tensor.TileConfig {
	return []tensor.TileConfig{{BlockM: 32, BlockN: 32}, {BlockM: 64, BlockN: 64}, {BlockM: 128, BlockN: 128}}
}

// thresholdMenu is the swept parallel-threshold menu (multiply-add
// counts), bracketing the builtin 1<<17.
func thresholdMenu() []int {
	return []int{1 << 15, 1 << 17, 1 << 19}
}

// gemmClass is one shape class's measurement workload.
type gemmClass struct {
	name   string
	shapes [][3]int // m, k, n; the last shape reports the entry's GFLOPS
}

func gemmClasses(quick bool) []gemmClass {
	if quick {
		return []gemmClass{
			{tensor.ShapeSquare, [][3]int{{64, 64, 64}, {128, 128, 128}}},
			{tensor.ShapeSkinny, [][3]int{{32, 512, 32}}},
			{tensor.ShapeFat, [][3]int{{256, 32, 256}}},
		}
	}
	return []gemmClass{
		{tensor.ShapeSquare, [][3]int{{128, 128, 128}, {256, 256, 256}, {512, 512, 512}}},
		{tensor.ShapeSkinny, [][3]int{{64, 2048, 64}, {128, 1024, 128}}},
		{tensor.ShapeFat, [][3]int{{1024, 64, 1024}, {2048, 64, 2048}}},
	}
}

// fill writes a deterministic, non-repeating pattern (no RNG needed:
// the values only have to defeat trivial zero-skips and keep every
// multiply live).
func fill(t *tensor.Tensor) {
	for i := range t.Data {
		t.Data[i] = float64(i%17)*0.25 - 2.0 + float64(i%5)*0.125
	}
}

// Search runs the full deterministic sweep and returns the winning
// configuration for this machine. Each candidate is measured as its
// own tensor.Blocked value, called directly, so the sweep is safe to run
// inside a live process: no run sees it.
func Search(opts Options) *Config {
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 2
		if opts.Quick {
			rounds = 1
		}
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}

	cfg := &Config{
		Kernel:     "blocked",
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Threshold:  tensor.DefaultTuning().Threshold,
	}

	candidates := blockMenu()

	// GEMM classes: per class, the candidate minimizing total best-of-N
	// time across the class's shapes wins; ties keep the earliest menu
	// position (fixed order ⇒ deterministic winner for equal clocks).
	var squareWin tensor.TileConfig
	for _, class := range gemmClasses(opts.Quick) {
		best := -1
		var bestTotal time.Duration
		var bestLast time.Duration
		for ci, cand := range candidates {
			total, last := timeGemmClass(class, cand, cfg.Threshold, rounds)
			logf("tune: gemm/%-6s %-12v total=%v", class.name, cand, total)
			if best < 0 || total < bestTotal {
				best, bestTotal, bestLast = ci, total, last
			}
		}
		win := candidates[best]
		if class.name == tensor.ShapeSquare {
			squareWin = win
		}
		last := class.shapes[len(class.shapes)-1]
		cfg.Entries = append(cfg.Entries, entryFor(OpGEMM, class.name, win, gemmFlops(last), bestLast))
		logf("tune: gemm/%-6s winner %v", class.name, win)
	}

	// Threshold: swept last, with the square winner, over gate-straddling
	// sizes — small enough that fork-join overhead is visible.
	gates := [][3]int{{48, 48, 48}, {64, 64, 64}, {96, 96, 96}}
	if opts.Quick {
		gates = [][3]int{{48, 48, 48}, {64, 64, 64}}
	}
	best := -1
	var bestTotal time.Duration
	for ti, th := range thresholdMenu() {
		total, _ := timeGemmClass(gemmClass{"gate", gates}, squareWin, th, rounds)
		logf("tune: threshold %-8d total=%v", th, total)
		if best < 0 || total < bestTotal {
			best, bestTotal = ti, total
		}
	}
	cfg.Threshold = thresholdMenu()[best]
	logf("tune: threshold winner %d", cfg.Threshold)
	return cfg
}

func entryFor(op, class string, win tensor.TileConfig, flops float64, best time.Duration) Entry {
	e := Entry{Op: op, ShapeClass: class, BlockM: win.BlockM, BlockN: win.BlockN}
	if best > 0 {
		e.GFLOPS = flops / best.Seconds() / 1e9
	}
	return e
}

func gemmFlops(s [3]int) float64 {
	return 2 * float64(s[0]) * float64(s[1]) * float64(s[2])
}

// engine is the GEBP engine running every shape class under cand. The
// menus hold valid configs only, so a rejection is a bug in them.
func engine(cand tensor.TileConfig, threshold int) tensor.Kernels {
	k, err := tensor.Blocked(tensor.Tuning{Threshold: threshold, Square: cand, Skinny: cand, Fat: cand})
	if err != nil {
		panic(err)
	}
	return k
}

// timeGemmClass returns the summed best-of-rounds time across the
// class's shapes, plus the best time of the final (largest) shape for
// throughput reporting. One untimed warmup per shape absorbs
// first-touch and scheduler noise.
func timeGemmClass(class gemmClass, cand tensor.TileConfig, threshold, rounds int) (total, last time.Duration) {
	eng := engine(cand, threshold)
	for _, s := range class.shapes {
		m, k, n := s[0], s[1], s[2]
		a := tensor.New(m, k)
		b := tensor.New(k, n)
		fill(a)
		fill(b)
		eng.MatMul(a, b)
		best := time.Duration(0)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			eng.MatMul(a, b)
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		total += best
		last = best
	}
	return total, last
}

// envelope is the slice of the results-stream framing this package
// needs. tune cannot import internal/results (results decodes
// tuneconfig payloads, importing this package), so it scans the JSONL
// itself with the same skip-don't-fail rules for foreign lines.
type envelope struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// LoadFile reads every v1 `tuneconfig` envelope from a JSONL results
// stream, in stream order. Lines of other kinds or versions are
// skipped (a tuning stream may ride inside a larger results file); a
// malformed tuneconfig payload is an error, since the caller asked for
// this file specifically.
func LoadFile(path string) ([]*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decode(f, path)
}

// decode is LoadFile's reader half; name stands for the stream in
// errors.
func decode(r io.Reader, name string) ([]*Config, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var out []*Config
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var env envelope
		if err := json.Unmarshal(line, &env); err != nil {
			continue // foreign line; not ours to police
		}
		if env.V != 1 || env.Kind != "tuneconfig" {
			continue
		}
		c := &Config{}
		if err := json.Unmarshal(env.Data, c); err != nil {
			return nil, fmt.Errorf("tune: %s:%d: bad tuneconfig payload: %v", name, lineNo, err)
		}
		out = append(out, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tune: %s: %v", name, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tune: %s: no tuneconfig envelopes found", name)
	}
	return out, nil
}

// Select picks the config for this machine: the last exact
// (GOARCH, GOMAXPROCS) match wins (later envelopes supersede earlier
// ones), falling back to the last same-GOARCH config, erroring when
// the architecture has no config at all — silently applying another
// architecture's tile choices would be worse than the builtin default.
func Select(cfgs []*Config, goarch string, gomaxprocs int) (*Config, error) {
	var archOnly *Config
	var exact *Config
	for _, c := range cfgs {
		if c.GOARCH != goarch {
			continue
		}
		archOnly = c
		if c.GOMAXPROCS == gomaxprocs {
			exact = c
		}
	}
	if exact != nil {
		return exact, nil
	}
	if archOnly != nil {
		return archOnly, nil
	}
	return nil, fmt.Errorf("tune: no tuneconfig for goarch=%s among %d envelope(s)", goarch, len(cfgs))
}

// Load reads the tuneconfig stream at path and selects this machine's
// config from it: the one step every consumer of a persisted stream
// takes before Config.Tuning.
func Load(path string) (*Config, error) {
	cfgs, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Select(cfgs, runtime.GOARCH, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, fmt.Errorf("%v in %s", err, path)
	}
	return c, nil
}
