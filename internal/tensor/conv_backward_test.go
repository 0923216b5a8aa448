package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// convCase is one convolution problem with its output gradient.
type convCase struct {
	x, w, g *Tensor
	p       Conv2DParams
}

func newConvCase(rng *rand.Rand, n, c, h, w, outC int, p Conv2DParams) convCase {
	return convCase{
		x: Randn(rng, 0, 1, n, c, h, w),
		w: Randn(rng, 0, 1, outC, c, p.Kernel, p.Kernel),
		g: Randn(rng, 0, 1, n, outC, p.OutDim(h), p.OutDim(w)),
		p: p,
	}
}

// convTable calls fn on every case of the conv bitwise sweep: every
// kernel size, stride and padding the models use and some they do not,
// over a 7×9 and a 13×11 image, one image and three. Output rows are
// not all a multiple of 4 or 8, some planes exceed convRowChunk so an
// image spans two chunks, and outC = 5 and C·k·k odd leave both edge
// panels partial.
func convTable(rng *rand.Rand, fn func(name string, cc convCase)) {
	for _, hw := range [][2]int{{7, 9}, {13, 11}} {
		for _, kern := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					p := Conv2DParams{Kernel: kern, Stride: stride, Padding: pad}
					for _, n := range []int{1, 3} {
						fn(fmt.Sprintf("n=%d %dx%d %+v", n, hw[0], hw[1], p), newConvCase(rng, n, 3, hw[0], hw[1], 5, p))
					}
				}
			}
		}
	}
}

// convSweepSize is how many (case, engine) pairs convTable × engines visit.
var convSweepSize = 2 * 3 * 2 * 3 * 2 * len(testBlocks) * 2

// TestConv2DBackwardBitwise holds the fused backward to the naive
// composition bit for bit over convTable × engines, either gradient
// alone as well as both, and again on repeat runs, since the fold into
// dx and the dw reduction must not depend on the schedule.
func TestConv2DBackwardBitwise(t *testing.T) {
	naive, _ := kernelPair(t)
	ran := 0
	convTable(rand.New(rand.NewSource(101)), func(caseName string, cc convCase) {
		wantX, wantW := naive.Conv2DBackward(cc.x, cc.w, cc.g, cc.p, true, true)
		engines(func(cfgName string, k Kernels) {
			name := caseName + " " + cfgName
			for rep := 0; rep < 3; rep++ {
				dx, dw := k.Conv2DBackward(cc.x, cc.w, cc.g, cc.p, true, true)
				bitwiseEqual(t, name+" dx", dx, wantX)
				bitwiseEqual(t, name+" dw", dw, wantW)
				if !dx.SameShape(cc.x) || !dw.SameShape(cc.w) {
					t.Fatalf("%s: shapes dx %v dw %v", name, dx.Shape(), dw.Shape())
				}
			}
			dx, dw := k.Conv2DBackward(cc.x, cc.w, cc.g, cc.p, false, true)
			if dx != nil {
				t.Fatalf("%s: needX=false returned a dx", name)
			}
			bitwiseEqual(t, name+" dw alone", dw, wantW)
			dx, dw = k.Conv2DBackward(cc.x, cc.w, cc.g, cc.p, true, false)
			if dw != nil {
				t.Fatalf("%s: needW=false returned a dw", name)
			}
			bitwiseEqual(t, name+" dx alone", dx, wantX)
			ran++
		})
	})
	if ran != convSweepSize {
		t.Fatalf("swept %d configurations, want %d", ran, convSweepSize)
	}
}

// TestConvBackwardInputFoldOrder: element 1 of a 1×3 image under a 3×3
// kernel with padding 1 receives one term from each of the three output
// pixels, pixel j through tap (1, 2−j). With g = (1, 1e16, −1e16) and
// unit weights the terms sum to 0 in col2im's ascending-pixel order and
// to 1 in ascending-tap order, so a fold that walks taps upwards fails
// here every time rather than on unlucky random data.
func TestConvBackwardInputFoldOrder(t *testing.T) {
	naive, _ := kernelPair(t)
	one, big := 1.0, 1e16
	if (one+big)-big == (-big+big)+one {
		t.Fatal("the terms do not tell the two orders apart")
	}
	p := Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
	x, w := New(1, 1, 1, 3), Ones(1, 1, 3, 3)
	g := FromSlice([]float64{one, big, -big}, 1, 1, 1, 3)
	want, _ := naive.Conv2DBackward(x, w, g, p, true, false)
	if want.Data[1] != (one+big)-big {
		t.Fatalf("col2im gives dx[1] = %v, want the ascending-pixel sum %v", want.Data[1], (one+big)-big)
	}
	engines(func(name string, k Kernels) {
		dx, _ := k.Conv2DBackward(x, w, g, p, true, false)
		bitwiseEqual(t, name, dx, want)
	})
}

// TestConv2DBackwardDispatch checks the package-level entry point under
// every registered kernel: shapes follow x and w, a gradient of the
// wrong shape panics before any kernel sees it, and the result matches
// the oracle's.
func TestConv2DBackwardDispatch(t *testing.T) {
	naive, _ := kernelPair(t)
	rng := rand.New(rand.NewSource(103))
	cc := newConvCase(rng, 2, 3, 13, 11, 5, Conv2DParams{Kernel: 3, Stride: 2, Padding: 1})
	wantX, wantW := naive.Conv2DBackward(cc.x, cc.w, cc.g, cc.p, true, true)
	for _, name := range KernelNames() {
		// The entry point dispatches to the kernels its operands are
		// placed under: adopt the input into an arena that records them.
		var ar Arena
		k, _ := LookupKernels(name)
		ar.SetRun(&Run{Kernels: k})
		ar.Adopt(cc.x)
		dx, dw := Conv2DBackward(cc.x, cc.w, cc.g, cc.p, true, true)
		bitwiseEqual(t, name+" dx", dx, wantX)
		bitwiseEqual(t, name+" dw", dw, wantW)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Conv2DBackward accepted a gradient of the input's shape")
		}
	}()
	Conv2DBackward(cc.x, cc.w, cc.x, cc.p, true, true)
}

// poisonScratch overwrites every pooled buffer, to its full capacity,
// with NaN.
func poisonScratch() {
	for i := range scratchFree {
		f := &scratchFree[i]
		f.mu.Lock()
		for _, buf := range f.bufs {
			buf = buf[:cap(buf)]
			for j := range buf {
				buf[j] = math.NaN()
			}
		}
		f.mu.Unlock()
	}
}

// TestScratchPoolDirtyBuffers proves no engine path relies on zeroed
// scratch and no pooled slice backs a returned Tensor. Each op runs
// once to stock the pool, the pool is poisoned with NaN, the op runs
// again on dirty buffers, and the pool is poisoned once more while the
// result is still held: a padded tap or tail row read before it was
// written, or a result aliasing scratch, surfaces as a NaN against the
// naive oracle.
func TestScratchPoolDirtyBuffers(t *testing.T) {
	naive, _ := kernelPair(t)
	rng := rand.New(rand.NewSource(107))
	a, b := Randn(rng, 0, 1, 65, 63), Randn(rng, 0, 1, 63, 66)
	bt, at := Randn(rng, 0, 1, 66, 63), Randn(rng, 0, 1, 63, 65)
	cc := newConvCase(rng, 3, 3, 13, 11, 5, Conv2DParams{Kernel: 3, Stride: 1, Padding: 2})
	ops := []struct {
		name string
		run  func(Kernels) []*Tensor
	}{
		{"MatMul", func(k Kernels) []*Tensor { return []*Tensor{k.MatMul(a, b)} }},
		{"MatMulT", func(k Kernels) []*Tensor { return []*Tensor{k.MatMulT(a, bt)} }},
		{"TMatMul", func(k Kernels) []*Tensor { return []*Tensor{k.TMatMul(at, b)} }},
		{"Conv2D", func(k Kernels) []*Tensor { return []*Tensor{k.Conv2D(cc.x, cc.w, cc.p)} }},
		{"Conv2DBackward", func(k Kernels) []*Tensor {
			dx, dw := k.Conv2DBackward(cc.x, cc.w, cc.g, cc.p, true, true)
			return []*Tensor{dx, dw}
		}},
	}
	for _, threshold := range []int{builtinBlocked.threshold, 1} {
		kern := &gebpKernels{blockM: 64, blockN: 64, threshold: threshold}
		for _, op := range ops {
			want := op.run(naive)
			op.run(kern)
			poisonScratch()
			got := op.run(kern)
			poisonScratch()
			for i := range want {
				bitwiseEqual(t, fmt.Sprintf("%s threshold=%d result %d", op.name, threshold, i), got[i], want[i])
			}
		}
	}

	// A padded lane only ever feeds accumulators the masked store drops,
	// so no result can show whether it was cleared; look at the panel.
	panel := make([]float64, 4*3)
	for i := range panel {
		panel[i] = math.NaN()
	}
	packPanel(panel, operand{[]float64{1, 2, 3, 4, 5, 6}, 2, 3, 3, 1}, 0, 4)
	for i, want := range []float64{1, 4, 0, 0, 2, 5, 0, 0, 3, 6, 0, 0} {
		if panel[i] != want {
			t.Fatalf("packPanel over a dirty panel = %v", panel)
		}
	}
}

// TestConvConcurrentMatchesSerial runs forward and backward
// convolutions from four goroutines at once — all borrowing from the
// one scratch pool, all forking into the shared worker budget — and
// demands every result equal its serial twin bit for bit. Run with
// -race it is also the pool's data-race test.
func TestConvConcurrentMatchesSerial(t *testing.T) {
	_, blocked := kernelPair(t)
	rng := rand.New(rand.NewSource(109))
	const workers, rounds = 4, 6
	cases := make([]convCase, workers)
	want := make([][3]*Tensor, workers)
	for i := range cases {
		// Big enough to cross the parallel threshold, differently shaped
		// so the goroutines borrow from different and shared size classes.
		cases[i] = newConvCase(rng, 2+i%2, 8, 17+i, 16, 6+i, Conv2DParams{Kernel: 3, Stride: 1, Padding: 1})
		cc := cases[i]
		want[i][0] = blocked.Conv2D(cc.x, cc.w, cc.p)
		want[i][1], want[i][2] = blocked.Conv2DBackward(cc.x, cc.w, cc.g, cc.p, true, true)
	}
	got := make([][rounds][3]*Tensor, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			cc := cases[i]
			for r := 0; r < rounds; r++ {
				got[i][r][0] = blocked.Conv2D(cc.x, cc.w, cc.p)
				got[i][r][1], got[i][r][2] = blocked.Conv2DBackward(cc.x, cc.w, cc.g, cc.p, true, true)
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		for r := range got[i] {
			for j, name := range []string{"out", "dx", "dw"} {
				bitwiseEqual(t, fmt.Sprintf("goroutine %d round %d %s", i, r, name), got[i][r][j], want[i][j])
			}
		}
	}
}
