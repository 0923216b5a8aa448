package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// withTuning activates cfg for the duration of the test, restoring the
// previous tuning (and its provenance label) afterwards.
func withTuning(t *testing.T, cfg Tuning, source string) {
	t.Helper()
	prev, prevSrc := ActiveTuning(), TuningSource()
	if err := SetTuning(cfg, source); err != nil {
		t.Fatalf("SetTuning: %v", err)
	}
	t.Cleanup(func() {
		if err := SetTuning(prev, prevSrc); err != nil {
			t.Fatalf("restore tuning: %v", err)
		}
	})
}

func TestTunedKernelRegistered(t *testing.T) {
	k, ok := LookupKernels("tuned")
	if !ok {
		t.Fatal("tuned kernel not registered")
	}
	if k.Name() != "tuned" {
		t.Fatalf("Name() = %q", k.Name())
	}
	if got, want := k.ParallelThreshold(), ActiveTuning().Threshold; got != want {
		t.Fatalf("ParallelThreshold = %d, want the active tuning's %d", got, want)
	}
	found := false
	for _, name := range KernelNames() {
		found = found || name == "tuned"
	}
	if !found {
		t.Fatalf("KernelNames() = %v, missing tuned", KernelNames())
	}
}

func TestTileConfigValidate(t *testing.T) {
	for _, micro := range MicroMenu() {
		for _, blk := range []int{32, 64, 128} {
			c := micro
			c.BlockM, c.BlockN = blk, blk
			if err := c.Validate(); err != nil {
				t.Errorf("menu config %s rejected: %v", c, err)
			}
		}
	}
	bad := []TileConfig{
		{MR: 3, NR: 4, KUnroll: 1, BlockM: 64, BlockN: 64},  // no 3-row micro-kernel
		{MR: 2, NR: 4, KUnroll: 3, BlockM: 64, BlockN: 64},  // unroll depth not in menu
		{MR: 2, NR: 4, KUnroll: 4, BlockM: 0, BlockN: 64},   // zero block
		{MR: 2, NR: 4, KUnroll: 4, BlockM: 63, BlockN: 64},  // BlockM not a multiple of MR
		{MR: 2, NR: 8, KUnroll: 2, BlockM: 64, BlockN: 60},  // BlockN not a multiple of NR
		{MR: 2, NR: 8, KUnroll: 2, BlockM: 64, BlockN: -64}, // negative block
		{},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s validated, want rejection", c)
		}
	}
}

func TestGEMMShapeClass(t *testing.T) {
	cases := []struct {
		m, k, n int
		want    string
	}{
		{128, 128, 128, ShapeSquare},
		{1, 1, 1, ShapeSquare},
		{64, 2048, 64, ShapeSkinny},
		{2048, 64, 2048, ShapeFat},
		{4, 16, 4, ShapeSkinny}, // boundary: k == 4·max(m,n)
		{16, 4, 8, ShapeFat},    // boundary: max(m,n) == 4·k
		{100, 30, 120, ShapeFat},
		{30, 100, 25, ShapeSquare}, // 100 < 4·30: nothing dominates
	}
	for _, c := range cases {
		if got := GEMMShapeClass(c.m, c.k, c.n); got != c.want {
			t.Errorf("GEMMShapeClass(%d,%d,%d) = %q, want %q", c.m, c.k, c.n, got, c.want)
		}
	}
}

// TestTunedMatMulMenuBitwise drives the tuned GEBP engine directly
// through every micro-kernel in the menu, at block sizes and thresholds
// that force both the serial and the fully parallel path, on shapes
// chosen to hit degenerate, panel-edge, and interior cases — and
// demands bitwise equality with the naive oracle every time. This is
// the tuning contract: configs move throughput, never bits.
func TestTunedMatMulMenuBitwise(t *testing.T) {
	naive, _ := kernelPair(t)
	rng := rand.New(rand.NewSource(71))
	shapes := [][3]int{{1, 1, 1}, {3, 129, 63}, {255, 257, 63}, {65, 63, 66}, {2, 8, 2}}
	for _, dims := range shapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		want := naive.MatMul(a, b)
		for _, micro := range MicroMenu() {
			for _, blk := range []int{32, 64} {
				cfg := micro
				cfg.BlockM, cfg.BlockN = blk, blk
				for _, threshold := range []int{1, 1 << 30} {
					got := TunedMatMul(a, b, cfg, threshold)
					name := fmt.Sprintf("TunedMatMul %v cfg=%s threshold=%d", dims, cfg, threshold)
					bitwiseEqual(t, name, got, want)
				}
			}
		}
	}
}

// TestTunedConv2DMenuBitwise does the same for the chunked im2col
// convolution path, including chunk-edge pixel counts.
func TestTunedConv2DMenuBitwise(t *testing.T) {
	naive, _ := kernelPair(t)
	rng := rand.New(rand.NewSource(73))
	p := Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
	x := Randn(rng, 0, 1, 2, 3, 16, 9)
	w := Randn(rng, 0, 1, 5, 3, 3, 3)
	want := naive.Conv2D(x, w, p)
	for _, micro := range MicroMenu() {
		for _, blk := range []int{32, 64} {
			cfg := micro
			cfg.BlockM, cfg.BlockN = blk, blk
			for _, threshold := range []int{1, 1 << 30} {
				got := TunedConv2D(x, w, p, cfg, threshold)
				name := fmt.Sprintf("TunedConv2D cfg=%s threshold=%d", cfg, threshold)
				bitwiseEqual(t, name, got, want)
			}
		}
	}
}

// TestTunedKernelAdversarialConfigs runs every dispatchable op through
// the registered tuned kernel under hostile-but-valid tunings — a
// different micro-kernel per shape class, a threshold of 1 (everything
// parallel), a threshold beyond any test shape (everything serial) —
// and demands bitwise equality with the naive oracle on odd and prime
// shapes. This is the path a `run -tune-from` takes, so it proves a
// persisted config can never change training numbers.
func TestTunedKernelAdversarialConfigs(t *testing.T) {
	naive, _ := kernelPair(t)
	tuned, ok := LookupKernels("tuned")
	if !ok {
		t.Fatal("tuned kernel not registered")
	}
	tunings := []Tuning{
		{
			Threshold: 1,
			Square:    TileConfig{MR: 4, NR: 4, KUnroll: 2, BlockM: 32, BlockN: 32},
			Skinny:    TileConfig{MR: 2, NR: 8, KUnroll: 2, BlockM: 64, BlockN: 32},
			Fat:       TileConfig{MR: 2, NR: 4, KUnroll: 1, BlockM: 32, BlockN: 64},
			Conv:      TileConfig{MR: 2, NR: 8, KUnroll: 1, BlockM: 32, BlockN: 32},
		},
		{
			Threshold: 1 << 30,
			Square:    TileConfig{MR: 2, NR: 8, KUnroll: 2, BlockM: 128, BlockN: 128},
			Skinny:    TileConfig{MR: 4, NR: 4, KUnroll: 1, BlockM: 32, BlockN: 32},
			Fat:       TileConfig{MR: 4, NR: 4, KUnroll: 2, BlockM: 128, BlockN: 64},
			Conv:      TileConfig{MR: 4, NR: 4, KUnroll: 1, BlockM: 64, BlockN: 128},
		},
	}
	rng := rand.New(rand.NewSource(79))
	for ti, tuning := range tunings {
		withTuning(t, tuning, fmt.Sprintf("adversarial-%d", ti))
		for _, dims := range [][3]int{{1, 1, 1}, {3, 129, 63}, {255, 257, 63}, {64, 2048, 64}, {129, 7, 130}} {
			m, k, n := dims[0], dims[1], dims[2]
			a := Randn(rng, 0, 1, m, k)
			b := Randn(rng, 0, 1, k, n)
			bt := Randn(rng, 0, 1, n, k)
			at := Randn(rng, 0, 1, k, m)
			v := Randn(rng, 0, 1, k)
			u := Randn(rng, 0, 1, m)
			w := Randn(rng, 0, 1, n)
			name := func(op string) string { return fmt.Sprintf("tuning %d %s %v", ti, op, dims) }
			bitwiseEqual(t, name("MatMul"), tuned.MatMul(a, b), naive.MatMul(a, b))
			bitwiseEqual(t, name("MatMulT"), tuned.MatMulT(a, bt), naive.MatMulT(a, bt))
			bitwiseEqual(t, name("TMatMul"), tuned.TMatMul(at, b), naive.TMatMul(at, b))
			bitwiseEqual(t, name("MatVec"), tuned.MatVec(a, v), naive.MatVec(a, v))
			bitwiseEqual(t, name("Outer"), tuned.Outer(u, w), naive.Outer(u, w))
		}
		x := Randn(rng, 0, 1, 2, 3, 13, 11)
		w := Randn(rng, 0, 1, 5, 3, 3, 3)
		p := Conv2DParams{Kernel: 3, Stride: 2, Padding: 1}
		bitwiseEqual(t, fmt.Sprintf("tuning %d Conv2D", ti), tuned.Conv2D(x, w, p), naive.Conv2D(x, w, p))
	}
}

func TestSetTuningValidatesAndTracksSource(t *testing.T) {
	// Pin a known state so assertions don't depend on test order.
	withTuning(t, DefaultTuning(), "")
	if got := TuningSource(); got != BuiltinTuningSource {
		t.Fatalf("empty source recorded as %q, want %q", got, BuiltinTuningSource)
	}
	before := ActiveTuning()
	bad := DefaultTuning()
	bad.Fat.BlockM = 7
	if err := SetTuning(bad, "bad.jsonl"); err == nil {
		t.Fatal("SetTuning accepted an invalid config")
	}
	if ActiveTuning() != before || TuningSource() != BuiltinTuningSource {
		t.Fatal("rejected SetTuning still mutated the active tuning")
	}
	bad = DefaultTuning()
	bad.Threshold = 0
	if err := SetTuning(bad, ""); err == nil {
		t.Fatal("SetTuning accepted a non-positive threshold")
	}
	good := DefaultTuning()
	good.Square = TileConfig{MR: 2, NR: 8, KUnroll: 2, BlockM: 128, BlockN: 64}
	if err := SetTuning(good, "sweep.jsonl"); err != nil {
		t.Fatal(err)
	}
	if ActiveTuning() != good || TuningSource() != "sweep.jsonl" {
		t.Fatalf("active = %+v from %q, want the applied config from sweep.jsonl",
			ActiveTuning(), TuningSource())
	}
}

// TestBlockedPinnedToBuiltinTuning proves "blocked" is the engine under
// DefaultTuning() and nothing else: with a hostile tuning active (tiny
// 8×8 blocks, the spilling 4×4 micro-kernel, everything parallel) it
// still resolves the builtin tuning, still reports the builtin
// threshold, and still matches the naive oracle bit for bit on the odd
// and prime shape table.
func TestBlockedPinnedToBuiltinTuning(t *testing.T) {
	naive, blocked := kernelPair(t)
	tuned, _ := LookupKernels("tuned")
	hostile := TileConfig{MR: 4, NR: 4, KUnroll: 2, BlockM: 8, BlockN: 8}
	withTuning(t, Tuning{Threshold: 1, Square: hostile, Skinny: hostile, Fat: hostile, Conv: hostile}, "hostile")
	if got := tuned.ParallelThreshold(); got != 1 {
		t.Fatalf("tuned threshold = %d: the hostile tuning is not active", got)
	}
	if got := blocked.ParallelThreshold(); got != 1<<17 {
		t.Fatalf("blocked threshold = %d under a hostile SetTuning, want %d", got, 1<<17)
	}
	if got := *blocked.(gebpKernels).tuning(); got != DefaultTuning() {
		t.Fatalf("blocked resolves tuning %+v, want the builtin", got)
	}
	rng := rand.New(rand.NewSource(83))
	for _, dims := range oddShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		bt := Randn(rng, 0, 1, n, k)
		at := Randn(rng, 0, 1, k, m)
		name := func(op string) string { return fmt.Sprintf("blocked %s %v", op, dims) }
		bitwiseEqual(t, name("MatMul"), blocked.MatMul(a, b), naive.MatMul(a, b))
		bitwiseEqual(t, name("MatMulT"), blocked.MatMulT(a, bt), naive.MatMulT(a, bt))
		bitwiseEqual(t, name("TMatMul"), blocked.TMatMul(at, b), naive.TMatMul(at, b))
	}
	x := Randn(rng, 0, 1, 2, 3, 13, 11)
	w := Randn(rng, 0, 1, 5, 3, 3, 3)
	p := Conv2DParams{Kernel: 3, Stride: 2, Padding: 1}
	bitwiseEqual(t, "blocked Conv2D", blocked.Conv2D(x, w, p), naive.Conv2D(x, w, p))
}

// TestBlockedAllocatesLikeTunedBuiltin: one engine means one allocation
// profile, and with its transient buffers pooled that profile is the
// result tensor plus the fork-join closures — nothing that grows with
// the operands. Both kernels run once first so the scratch pool is
// stocked; the steady-state counts must then agree and stay under a
// small constant.
func TestBlockedAllocatesLikeTunedBuiltin(t *testing.T) {
	_, blocked := kernelPair(t)
	tuned, _ := LookupKernels("tuned")
	withTuning(t, DefaultTuning(), "")
	rng := rand.New(rand.NewSource(89))
	a, b := Randn(rng, 0, 1, 256, 256), Randn(rng, 0, 1, 256, 256)
	x, w := Randn(rng, 0, 1, 8, 16, 32, 32), Randn(rng, 0, 1, 32, 16, 3, 3)
	g := Randn(rng, 0, 1, 8, 32, 32, 32)
	p := Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
	for _, op := range []struct {
		name string
		most float64
		run  func(Kernels)
	}{
		{"MatMul 256^3", 12, func(k Kernels) { k.MatMul(a, b) }},
		{"Conv2D 8x16x32x32 * 32x16x3x3", 10, func(k Kernels) { k.Conv2D(x, w, p) }},
		{"Conv2DBackward of it", 20, func(k Kernels) { k.Conv2DBackward(x, w, g, p, true, true) }},
	} {
		op.run(blocked)
		op.run(tuned)
		got := testing.AllocsPerRun(5, func() { op.run(blocked) })
		want := testing.AllocsPerRun(5, func() { op.run(tuned) })
		t.Logf("%s: %v allocations per call", op.name, got)
		if got != want || got > op.most {
			t.Errorf("%s: blocked allocates %v objects per call, tuned@builtin %v, want equal and at most %v", op.name, got, want, op.most)
		}
	}
}
