package gpusim

import (
	"math"
	"testing"
	"testing/quick"

	"aibench/internal/workload"
)

func TestDevicePeaks(t *testing.T) {
	xp := TitanXP()
	// 2·3840·1.582 ≈ 12150 GFLOPs.
	if g := xp.PeakGFLOPs(); math.Abs(g-12150) > 200 {
		t.Fatalf("Titan XP peak = %g GFLOPs", g)
	}
	rtx := TitanRTX()
	if rtx.PeakGFLOPs() <= xp.PeakGFLOPs() {
		t.Fatal("Titan RTX should be faster than Titan XP")
	}
	if rtx.MemGB != 24 || xp.MemGB != 12 {
		t.Fatal("memory sizes per Table 4")
	}
}

func TestCPUConfigTable4(t *testing.T) {
	c := XeonE52620v3()
	if c.Cores != 12 || c.ClockGHz != 2.4 || c.L3MB != 15 || c.HyperThreading {
		t.Fatalf("CPU config mismatch: %+v", c)
	}
}

func TestExecuteComputeBoundKernel(t *testing.T) {
	k := Kernel{
		Category:  GEMM,
		FLOPs:     1e12, // 1 TFLOP — heavily compute-bound
		BytesRead: 1e6, BytesWritten: 1e6,
	}
	Execute(&k, TitanXP())
	p := profiles[GEMM]
	wantTime := 1e12/(TitanXP().PeakGFLOPs()*1e9*p.computeEff) + launchOverhead
	if math.Abs(k.Time-wantTime)/wantTime > 1e-9 {
		t.Fatalf("time = %g, want %g", k.Time, wantTime)
	}
	if k.Metrics.DramUtilization > 0.1 {
		t.Fatalf("compute-bound kernel dram util = %g", k.Metrics.DramUtilization)
	}
	if k.Metrics.IPCEfficiency < 0.5 {
		t.Fatalf("compute-bound gemm IPC eff = %g, too low", k.Metrics.IPCEfficiency)
	}
}

func TestExecuteMemoryBoundKernel(t *testing.T) {
	k := Kernel{
		Category:  Elementwise,
		FLOPs:     1e6,
		BytesRead: 5e8, BytesWritten: 5e8, // 1 GB traffic
	}
	Execute(&k, TitanXP())
	if k.Metrics.DramUtilization < 0.5 {
		t.Fatalf("memory-bound kernel dram util = %g, too low", k.Metrics.DramUtilization)
	}
	// Element-wise kernels must show the ~70% memory-dependency stall
	// signature of Fig 7.
	if k.Stalls.MemDepend < 0.6 {
		t.Fatalf("elementwise mem-dependency stalls = %g, want ≈0.7", k.Stalls.MemDepend)
	}
}

func TestStallsSumToOne(t *testing.T) {
	f := func(memBoundRaw uint8, catIdx uint8) bool {
		cats := Categories()
		cat := cats[int(catIdx)%len(cats)]
		mb := float64(memBoundRaw) / 255
		s := stallsFor(cat, mb)
		return math.Abs(s.Sum()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemDependAndExecDependDominate(t *testing.T) {
	// Fig 7's headline: the top two stalls are memory dependency and
	// execution dependency in every category.
	for _, cat := range Categories() {
		s := stallsFor(cat, 0.5)
		others := []float64{s.InstFetch, s.Texture, s.Sync, s.ConstMemDepend, s.MemThrottle}
		for _, o := range others {
			if o > s.MemDepend && o > s.ExecDepend {
				t.Fatalf("category %s: stall %g exceeds both mem-dep and exec-dep", cat, o)
			}
		}
	}
}

func TestMetricsInUnitRange(t *testing.T) {
	f := func(flopsRaw, bytesRaw uint32, catIdx uint8) bool {
		cats := Categories()
		k := Kernel{
			Category:  cats[int(catIdx)%len(cats)],
			FLOPs:     float64(flopsRaw),
			BytesRead: float64(bytesRaw), BytesWritten: float64(bytesRaw) / 2,
		}
		Execute(&k, TitanRTX())
		for _, v := range k.Metrics.Vector() {
			if v < 0 || v > 1 {
				return false
			}
		}
		return k.Time > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerResNetKernelMix(t *testing.T) {
	m := workload.ResNet50(3, 32, 32, 10)
	ks := Lower(m, 4, true)
	counts := map[Category]int{}
	for _, k := range ks {
		counts[k.Category]++
	}
	if counts[Convolution] == 0 || counts[BatchNormCat] == 0 || counts[ReluCat] == 0 {
		t.Fatalf("ResNet lowering missing core categories: %v", counts)
	}
	if counts[MemcpyCat] == 0 {
		t.Fatal("missing input memcpy")
	}
	// Training should emit backward kernels: conv count must exceed the
	// number of conv layers.
	convLayers := 0
	for _, l := range m.Layers {
		if l.Kind == workload.Conv {
			convLayers++
		}
	}
	if counts[Convolution] <= convLayers {
		t.Fatalf("conv kernels %d <= conv layers %d: no backward kernels", counts[Convolution], convLayers)
	}
	// Inference should emit strictly fewer kernels.
	if len(Lower(m, 4, false)) >= len(ks) {
		t.Fatal("inference lowering should be smaller than training")
	}
}

func TestCategorySharesSumToOne(t *testing.T) {
	m := workload.ResNet50(3, 32, 32, 10)
	p := Run(m, 4, true, TitanXP())
	total := 0.0
	for _, s := range p.CategoryShares() {
		if s < 0 {
			t.Fatal("negative share")
		}
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %g", total)
	}
}

func TestResNetIsConvDominated(t *testing.T) {
	m := workload.ResNet50(3, 224, 224, 1000)
	p := Run(m, 32, true, TitanXP())
	shares := p.CategoryShares()
	if shares[Convolution] < 0.4 {
		t.Fatalf("ResNet conv share = %g, expected dominant", shares[Convolution])
	}
}

func TestMLPIsGemmDominated(t *testing.T) {
	ls := workload.MLP(nil, "g", []int{512, 512, 512, 512}, 1)
	m := workload.Model{Name: "mlp", Layers: ls}
	p := Run(m, 64, true, TitanXP())
	shares := p.CategoryShares()
	if shares[GEMM] < 0.3 {
		t.Fatalf("MLP gemm share = %g, expected dominant", shares[GEMM])
	}
}

func TestHotspotsSortedAndComplete(t *testing.T) {
	m := workload.ResNet50(3, 32, 32, 10)
	p := Run(m, 4, true, TitanXP())
	hs := p.Hotspots()
	if len(hs) < 5 {
		t.Fatalf("only %d hotspot functions", len(hs))
	}
	total := 0.0
	for i, h := range hs {
		if i > 0 && h.Share > hs[i-1].Share {
			t.Fatal("hotspots not sorted")
		}
		total += h.Share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("hotspot shares sum to %g", total)
	}
}

func TestWeightedMetricsWithinRange(t *testing.T) {
	m := workload.ResNet50(3, 32, 32, 10)
	p := Run(m, 4, true, TitanRTX())
	wm := p.WeightedMetrics()
	for i, v := range wm.Vector() {
		if v <= 0 || v > 1 {
			t.Fatalf("metric %s = %g", MetricNames()[i], v)
		}
	}
}

func TestCategoryStallsNormalized(t *testing.T) {
	m := workload.ResNet50(3, 32, 32, 10)
	p := Run(m, 4, true, TitanXP())
	for cat, s := range p.CategoryStalls() {
		if math.Abs(s.Sum()-1) > 1e-9 {
			t.Fatalf("category %s stalls sum to %g", cat, s.Sum())
		}
	}
}

func TestRTXFasterThanXP(t *testing.T) {
	m := workload.ResNet50(3, 64, 64, 100)
	tXP := IterationTime(m, 16, TitanXP())
	tRTX := IterationTime(m, 16, TitanRTX())
	if tRTX >= tXP {
		t.Fatalf("RTX %g should beat XP %g", tRTX, tXP)
	}
}

func TestEpochTimeScalesWithDataset(t *testing.T) {
	m := workload.ResNet50(3, 32, 32, 10)
	e1 := EpochTime(m, 1000, 32, TitanXP())
	e2 := EpochTime(m, 2000, 32, TitanXP())
	if math.Abs(e2/e1-2) > 0.05 {
		t.Fatalf("epoch scaling %g, want ≈2", e2/e1)
	}
}

func TestKernelNameSelection(t *testing.T) {
	one := workload.Layer{Kind: workload.Conv, Kernel: 1, Stride: 1, InC: 64, OutC: 64, H: 8, W: 8}
	three := workload.Layer{Kind: workload.Conv, Kernel: 3, Stride: 1, InC: 64, OutC: 64, H: 8, W: 8}
	five := workload.Layer{Kind: workload.Conv, Kernel: 5, Stride: 1, InC: 64, OutC: 64, H: 8, W: 8}
	if convName(one, false) != "implicit_convolve_sgemm" {
		t.Fatal("1x1 conv should dispatch to implicit gemm")
	}
	if convName(three, false) != "maxwell_scudnn_winograd_128x128_ldg1_ldg4_tile148n_nt" {
		t.Fatal("3x3 stride-1 conv should dispatch to winograd")
	}
	if convName(five, false) != "fft2d_r2c_32x32" {
		t.Fatal("5x5 conv should dispatch to FFT")
	}
	if gemmName(1, 512, 512) != "gemv2N_kernel" {
		t.Fatal("m=1 should dispatch to gemv")
	}
}

func TestTable7NamesPresent(t *testing.T) {
	names := kernelNames
	// Spot-check the exact function names Table 7 lists.
	want := map[Category]string{
		DataArrangement: "maxwell_scudnn_128x32_stridedB_splitK_interior_nn",
		Convolution:     "wgrad_alg0_engine",
		GEMM:            "maxwell_sgemm_128x64_nt",
		BatchNormCat:    "cudnn_bn_fw_tr_1C11_kernel_NCHW",
		ReluCat:         "maxwell_scudnn_128x128_relu_small_nn",
		Elementwise:     "elementwise_add_kernel",
		Pooling:         "AvePoolForward",
		MemcpyCat:       "CUDA_memcpy_HtoD",
	}
	for cat, name := range want {
		found := false
		for _, n := range names[cat] {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("category %s missing Table 7 function %s", cat, name)
		}
	}
}
