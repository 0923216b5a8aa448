package tensor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// mustBlocked builds the GEBP engine under t, failing the test on an
// invalid tuning.
func mustBlocked(t *testing.T, tuning Tuning) Kernels {
	t.Helper()
	k, err := Blocked(tuning)
	if err != nil {
		t.Fatalf("Blocked: %v", err)
	}
	return k
}

// uniform is the tuning that runs every shape class under cfg.
func uniform(cfg TileConfig, threshold int) Tuning {
	return Tuning{Threshold: threshold, Square: cfg, Skinny: cfg, Fat: cfg}
}

// testBlocks is the block list the bitwise sweeps run every class
// under: exactly one micro-tile (every tile a single micro-kernel call,
// so edge shapes reach the masked store), a non-square block, the
// sweep's 32×32 and the builtin 64×64 (multi-tile walks).
var testBlocks = []TileConfig{{BlockM: 2, BlockN: 4}, {BlockM: 8, BlockN: 32}, {BlockM: 32, BlockN: 32}, {BlockM: 64, BlockN: 64}}

func TestTileConfigValidate(t *testing.T) {
	for _, c := range append(testBlocks, TileConfig{BlockM: 128, BlockN: 128}) {
		if err := c.Validate(); err != nil {
			t.Errorf("config %s rejected: %v", c, err)
		}
	}
	bad := []TileConfig{
		{BlockM: 0, BlockN: 64},   // zero block
		{BlockM: 63, BlockN: 64},  // BlockM not a multiple of mr
		{BlockM: 64, BlockN: 62},  // BlockN not a multiple of nr
		{BlockM: 64, BlockN: -64}, // negative block
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

// TestTunedMenuMatMulBitwise drives the GEBP engine directly through
// every block of testBlocks, at thresholds that force both the serial
// and the fully parallel path, on shapes chosen to hit degenerate,
// panel-edge, and interior cases — and demands bitwise equality with
// the naive oracle every time. This is the tuning contract: configs
// move throughput, never bits.
func TestTunedMenuMatMulBitwise(t *testing.T) {
	naive, _ := kernelPair(t)
	rng := rand.New(rand.NewSource(71))
	shapes := [][3]int{{1, 1, 1}, {3, 129, 63}, {255, 257, 63}, {65, 63, 66}, {2, 8, 2}}
	for _, dims := range shapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		want := naive.MatMul(a, b)
		for _, cfg := range testBlocks {
			for _, threshold := range []int{1, 1 << 30} {
				got := mustBlocked(t, uniform(cfg, threshold)).MatMul(a, b)
				name := fmt.Sprintf("Blocked MatMul %v cfg=%s threshold=%d", dims, cfg, threshold)
				bitwiseEqual(t, name, got, want)
			}
		}
	}
}

// TestTunedMenuConv2DBitwise does the same for the forward convolution
// over the backward's sweep (convTable × convConfigs): partial edge
// panels on both operands, images that span two chunks, and output rows
// that are not a multiple of nr, so a tile stored straight into NCHW
// crosses row ends.
func TestTunedMenuConv2DBitwise(t *testing.T) {
	naive, _ := kernelPair(t)
	ran := 0
	convTable(rand.New(rand.NewSource(73)), func(caseName string, cc convCase) {
		want := naive.Conv2D(cc.x, cc.w, cc.p)
		convConfigs(func(cfgName string, k Kernels) {
			got := k.Conv2D(cc.x, cc.w, cc.p)
			bitwiseEqual(t, "Blocked Conv2D "+caseName+" "+cfgName, got, want)
			ran++
		})
	})
	if ran != convSweepSize {
		t.Fatalf("swept %d configurations, want %d", ran, convSweepSize)
	}
}

// TestTunedKernelAdversarialConfigs runs every dispatchable op through
// a blocked kernel built from hostile-but-valid tunings — different
// blocks per shape class, a threshold of 1 (everything parallel), a
// threshold beyond any test shape (everything serial) — and demands
// bitwise equality with the naive oracle on odd and prime shapes.
// This is the path a `run -tune-from` takes, so it proves a persisted
// config can never change training numbers.
func TestTunedKernelAdversarialConfigs(t *testing.T) {
	naive, _ := kernelPair(t)
	tunings := []Tuning{
		{
			Threshold: 1,
			Square:    TileConfig{BlockM: 32, BlockN: 32},
			Skinny:    TileConfig{BlockM: 64, BlockN: 32},
			Fat:       TileConfig{BlockM: 2, BlockN: 4},
		},
		{
			Threshold: 1 << 30,
			Square:    TileConfig{BlockM: 128, BlockN: 128},
			Skinny:    TileConfig{BlockM: 8, BlockN: 32},
			Fat:       TileConfig{BlockM: 128, BlockN: 64},
		},
	}
	rng := rand.New(rand.NewSource(79))
	for ti, tuning := range tunings {
		tuned := mustBlocked(t, tuning)
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

// TestTunedValidatesAndCarriesItsTuning: the constructor is the one
// place a tuning is checked, and the value it returns reports exactly
// what it was built with — nothing else in the process moves.
func TestTunedValidatesAndCarriesItsTuning(t *testing.T) {
	bad := DefaultTuning()
	bad.Fat.BlockM = 7
	if _, err := Blocked(bad); err == nil {
		t.Fatal("Blocked accepted an invalid config")
	}
	bad = DefaultTuning()
	bad.Threshold = 0
	if _, err := Blocked(bad); err == nil {
		t.Fatal("Blocked accepted a non-positive threshold")
	}
	good := DefaultTuning()
	good.Threshold = 1 << 15
	good.Square = TileConfig{BlockM: 128, BlockN: 64}
	k := mustBlocked(t, good)
	if got, ok := TuningOf(k); !ok || got != good || k.Name() != "blocked" {
		t.Fatalf("Blocked(%+v) = %q carrying %+v (ok=%v)", good, k.Name(), got, ok)
	}
	builtin, _ := LookupKernels("blocked")
	if got, _ := TuningOf(builtin); got != DefaultTuning() {
		t.Fatalf("building a tuned blocked kernel moved the builtin one to %+v", got)
	}
	naive, _ := LookupKernels("naive")
	if _, ok := TuningOf(naive); ok {
		t.Error("TuningOf(naive) reports a tuning; only blocked takes one")
	}
}

// TestResolveKernels pins the one rule a plan and a worker hello share:
// a name picks naive or blocked, a tuning parameterizes blocked and
// nothing else, and "tuned" — the GEBP engine's former second name — is
// an unknown kernel like any other.
func TestResolveKernels(t *testing.T) {
	hostile := uniform(TileConfig{BlockM: 8, BlockN: 8}, 1)
	builtin := DefaultTuning()
	for _, c := range []struct {
		name       string
		tuning     *Tuning
		want       string  // resolved Name(); "" = an error
		wantTuning *Tuning // TuningOf the result; nil = none
		wantErr    string
	}{
		{"naive", nil, "naive", nil, ""},
		{"blocked", nil, "blocked", &builtin, ""},
		{"blocked", &hostile, "blocked", &hostile, ""},
		{"naive", &hostile, "", nil, `parameterizes the "blocked" kernel`},
		{"", &hostile, "", nil, `parameterizes the "blocked" kernel`},
		{"tuned", nil, "", nil, "have: blocked, naive"},
		{"tuned", &hostile, "", nil, `parameterizes the "blocked" kernel`},
		{"", nil, "", nil, "unknown kernel"},
		{"no-such-kernel", nil, "", nil, "unknown kernel"},
		{"blocked", &Tuning{}, "", nil, "threshold"},
	} {
		k, err := ResolveKernels(c.name, c.tuning)
		if c.want == "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ResolveKernels(%q, %v) = %v, %v; want an error mentioning %q", c.name, c.tuning, k, err, c.wantErr)
			}
			continue
		}
		if err != nil || k.Name() != c.want {
			t.Errorf("ResolveKernels(%q, %v) = %v, %v; want %s", c.name, c.tuning, k, err, c.want)
			continue
		}
		got, ok := TuningOf(k)
		if ok != (c.wantTuning != nil) || ok && got != *c.wantTuning {
			t.Errorf("ResolveKernels(%q, %v) runs under %+v (ok=%v), want %v", c.name, c.tuning, got, ok, c.wantTuning)
		}
	}
}

// TestBlockedIsTheBuiltinTuning proves the kernel the name "blocked"
// looks up is the engine under DefaultTuning(), and that it matches the
// naive oracle bit for bit on the odd and prime shape table.
func TestBlockedIsTheBuiltinTuning(t *testing.T) {
	naive, blocked := kernelPair(t)
	if got, _ := TuningOf(blocked); got != DefaultTuning() {
		t.Fatalf("blocked runs under tuning %+v, want the builtin", got)
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

// TestBlockedAllocationBounds: with its transient buffers pooled, the
// GEBP engine allocates the result tensor plus the fork-join closures —
// nothing that grows with the operands. Each op runs once first so the
// scratch pool is stocked; the steady-state count must then stay under
// a small constant.
func TestBlockedAllocationBounds(t *testing.T) {
	_, blocked := kernelPair(t)
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
		got := testing.AllocsPerRun(5, func() { op.run(blocked) })
		t.Logf("%s: %v allocations per call", op.name, got)
		if got > op.most {
			t.Errorf("%s: blocked allocates %v objects per call, want at most %v", op.name, got, op.most)
		}
	}
}
