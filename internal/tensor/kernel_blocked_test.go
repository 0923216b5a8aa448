package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testBlocks is the block list the bitwise sweeps run the engine under:
// exactly one micro-tile (every tile a single micro-kernel call, so edge
// shapes reach the masked store), a non-square block, 32×32 and the
// builtin 64×64 (multi-tile walks).
var testBlocks = [][2]int{{mr, nr}, {8, 32}, {32, 32}, {64, 64}}

// engines calls fn with the GEBP engine under each of testBlocks, with
// every product packed and forked (threshold 1) and every product read
// in place (2³⁰, which no test shape reaches, so every GEMM takes the
// direct path and the conv passes run serially). The packed path walks
// its tiles serially only at threshold 1 on a product that fits one
// tile, such as {2, 8, 2} under 64×64.
func engines(fn func(name string, k Kernels)) {
	for _, b := range testBlocks {
		for _, threshold := range []int{1, 1 << 30} {
			fn(fmt.Sprintf("block=%dx%d threshold=%d", b[0], b[1], threshold),
				&gebpKernels{blockM: b[0], blockN: b[1], threshold: threshold})
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

// TestTunedMenuMatMulBitwise drives the GEBP engine directly under every
// block of testBlocks, at thresholds that force both the serial and the
// fully parallel path, on shapes chosen to hit degenerate, panel-edge,
// and interior cases — and demands bitwise equality with the naive
// oracle every time: blocks and threshold move throughput, never bits.
func TestTunedMenuMatMulBitwise(t *testing.T) {
	naive, _ := kernelPair(t)
	rng := rand.New(rand.NewSource(71))
	shapes := [][3]int{{1, 1, 1}, {3, 129, 63}, {255, 257, 63}, {65, 63, 66}, {2, 8, 2}}
	for _, dims := range shapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		want := naive.MatMul(a, b)
		engines(func(name string, k Kernels) {
			bitwiseEqual(t, fmt.Sprintf("MatMul %v %s", dims, name), k.MatMul(a, b), want)
		})
	}
}

// TestTunedMenuConv2DBitwise does the same for the forward convolution
// over the backward's sweep (convTable × engines): partial edge panels
// on both operands, images that span two chunks, and output rows that
// are not a multiple of nr, so a tile stored straight into NCHW crosses
// row ends.
func TestTunedMenuConv2DBitwise(t *testing.T) {
	naive, _ := kernelPair(t)
	ran := 0
	convTable(rand.New(rand.NewSource(73)), func(caseName string, cc convCase) {
		want := naive.Conv2D(cc.x, cc.w, cc.p)
		engines(func(name string, k Kernels) {
			got := k.Conv2D(cc.x, cc.w, cc.p)
			bitwiseEqual(t, "Conv2D "+caseName+" "+name, got, want)
			ran++
		})
	})
	if ran != convSweepSize {
		t.Fatalf("swept %d configurations, want %d", ran, convSweepSize)
	}
}

// TestTunedKernelAdversarialConfigs runs every dispatchable op through
// the engine under every block of testBlocks, everything forked and
// everything serial, and demands bitwise equality with the naive oracle
// on odd and prime shapes.
func TestTunedKernelAdversarialConfigs(t *testing.T) {
	naive, _ := kernelPair(t)
	rng := rand.New(rand.NewSource(79))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 129, 63}, {255, 257, 63}, {64, 2048, 64}, {129, 7, 130}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		bt := Randn(rng, 0, 1, n, k)
		at := Randn(rng, 0, 1, k, m)
		ops := []struct {
			name string
			run  func(Kernels) *Tensor
		}{
			{"MatMul", func(k Kernels) *Tensor { return k.MatMul(a, b) }},
			{"MatMulT", func(k Kernels) *Tensor { return k.MatMulT(a, bt) }},
			{"TMatMul", func(k Kernels) *Tensor { return k.TMatMul(at, b) }},
		}
		for _, op := range ops {
			want := op.run(naive)
			engines(func(cfg string, e Kernels) {
				bitwiseEqual(t, fmt.Sprintf("%s %s %v", cfg, op.name, dims), op.run(e), want)
			})
		}
	}
}

// TestResolveKernels pins the one rule a plan and a worker hello share:
// a name picks naive or blocked, and anything else — "tuned", the GEBP
// engine's former second name, included — is an unknown kernel that
// says which ones there are.
func TestResolveKernels(t *testing.T) {
	for _, name := range KernelNames() {
		want, _ := LookupKernels(name)
		if k, err := ResolveKernels(name); err != nil || k != want {
			t.Errorf("ResolveKernels(%q) = %v, %v; want %v", name, k, err, want)
		}
	}
	for _, name := range []string{"tuned", "", "no-such-kernel"} {
		if k, err := ResolveKernels(name); err == nil || !strings.Contains(err.Error(), "unknown kernel") || !strings.Contains(err.Error(), "have: blocked, naive") {
			t.Errorf("ResolveKernels(%q) = %v, %v; want an unknown kernel naming blocked, naive", name, k, err)
		}
	}
}

// TestBlockedIsTheBuiltinEngine proves the kernel the name "blocked"
// looks up is the engine with 64×64 blocks forking at 2¹⁷
// multiply-adds, and that it matches the naive oracle bit for bit on the
// odd and prime shape table.
func TestBlockedIsTheBuiltinEngine(t *testing.T) {
	naive, blocked := kernelPair(t)
	if g, ok := blocked.(*gebpKernels); !ok || *g != (gebpKernels{blockM: 64, blockN: 64, threshold: 1 << 17}) {
		t.Fatalf("blocked is %#v, want the engine with 64x64 blocks and threshold 1<<17", blocked)
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

// salted fills a rows×cols tensor with normal draws, then overwrites
// one element in 32 (at least one) with NaN, ±Inf, −0 or a subnormal,
// so a product's outputs mix finite and non-finite values.
func salted(rng *rand.Rand, rows, cols int) *Tensor {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -0x1p-1050, 0x1p-1030}
	t := Randn(rng, 0, 1, rows, cols)
	for range len(t.Data)/32 + 1 {
		t.Data[rng.Intn(len(t.Data))] = specials[rng.Intn(len(specials))]
	}
	return t
}

// TestDirectMatchesPackedOnEveryValue holds the in-place path to the
// packed one where the naive oracle cannot judge: naive skips exact-zero
// multiplicands, which changes nothing finite but turns 0·Inf's NaN into
// a skipped term. The engine at threshold 2³⁰ (every product direct)
// must match the engine at threshold 1 (every product packed) bit for
// bit on operands salted with NaN, ±Inf, −0 and subnormals, edge lanes
// on both sides included. A NaN
// matches any NaN: when two NaNs meet, which one an operation returns
// follows the operand order the compiler picked for a commutative
// instruction, which neither IEEE 754 nor Go pins.
func TestDirectMatchesPackedOnEveryValue(t *testing.T) {
	direct := &gebpKernels{blockM: 64, blockN: 64, threshold: 1 << 30}
	packed := &gebpKernels{blockM: 64, blockN: 64, threshold: 1}
	rng := rand.New(rand.NewSource(109))
	for _, dims := range [][3]int{{12, 16, 16}, {11, 8, 12}, {1, 7, 5}, {7, 1, 9}, {2, 3, 4}, {3, 129, 63}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := salted(rng, m, k), salted(rng, k, n)
		bt, at := salted(rng, n, k), salted(rng, k, m)
		for _, op := range []struct {
			name string
			run  func(Kernels) *Tensor
		}{
			{"MatMul", func(e Kernels) *Tensor { return e.MatMul(a, b) }},
			{"MatMulT", func(e Kernels) *Tensor { return e.MatMulT(a, bt) }},
			{"TMatMul", func(e Kernels) *Tensor { return e.TMatMul(at, b) }},
		} {
			got, want := op.run(direct), op.run(packed)
			for i, w := range want.Data {
				g := got.Data[i]
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%s %v: element %d is %v (%#x) direct, %v (%#x) packed",
						op.name, dims, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// TestSmallProductsBorrowNothing pins where the builtin engine stops
// reading operands in place: a product one multiply-add under the 2¹⁷
// fork threshold borrows no scratch, one at the threshold packs. The
// pool is emptied first and restored afterwards, so whatever a product
// borrows and hands back shows up on a free list.
func TestSmallProductsBorrowNothing(t *testing.T) {
	naive, blocked := kernelPair(t)
	var held [len(scratchFree)][][]float64
	for i := range scratchFree {
		f := &scratchFree[i]
		f.mu.Lock()
		held[i], f.bufs = f.bufs, nil
		f.mu.Unlock()
	}
	t.Cleanup(func() {
		for i := range scratchFree {
			f := &scratchFree[i]
			f.mu.Lock()
			f.bufs = append(f.bufs, held[i]...)
			f.mu.Unlock()
		}
	})
	pooled := func() int {
		n := 0
		for i := range scratchFree {
			f := &scratchFree[i]
			f.mu.Lock()
			n += len(f.bufs)
			f.mu.Unlock()
		}
		return n
	}
	rng := rand.New(rand.NewSource(113))
	for _, c := range []struct {
		m     int
		packs bool
	}{{127, false}, {128, true}} {
		a, b := Randn(rng, 0, 1, c.m, 32), Randn(rng, 0, 1, 32, 32)
		got := blocked.MatMul(a, b)
		if n := pooled(); (n > 0) != c.packs {
			t.Errorf("%dx32·32x32 (%d multiply-adds) left %d pooled buffers, want packing %v", c.m, c.m*32*32, n, c.packs)
		}
		bitwiseEqual(t, fmt.Sprintf("MatMul %dx32·32x32", c.m), got, naive.MatMul(a, b))
	}
}

// BenchmarkSmallGEMM is the per-call rung of the direct path, at the
// products of DC-AI-C3's d = 16 Transformer: each runs in place under
// the builtin engine (direct) and packed under an engine whose 2¹⁰
// threshold sits between these products (1152–3072 multiply-adds) and
// their operands (at most 256 elements), so it packs them without
// forking either the pack or the one-tile walk (packed) — the path the
// builtin engine took before it read small products in place. Results
// go to a step arena reset every call, as in a training step.
func BenchmarkSmallGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(127))
	x, w, q := Randn(rng, 0, 1, 12, 16), Randn(rng, 0, 1, 16, 16), Randn(rng, 0, 1, 12, 8)
	var ar Arena
	ar.Adopt(x, w, q)
	ops := []struct {
		name string
		run  func(Kernels)
	}{
		{"MatMul=12x16x16", func(k Kernels) { k.MatMul(x, w) }},
		{"MatMulT=12x8x12", func(k Kernels) { k.MatMulT(q, q) }},
		{"TMatMul=16x12x16", func(k Kernels) { k.TMatMul(x, x) }},
	}
	paths := []struct {
		name string
		k    Kernels
	}{{"direct", builtinBlocked}, {"packed", &gebpKernels{blockM: 64, blockN: 64, threshold: 1 << 10}}}
	for _, op := range ops {
		for _, p := range paths {
			b.Run(op.name+"/"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op.run(p.k)
					ar.Reset()
				}
			})
		}
	}
}
