// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each bench regenerates the rows/series the
// paper reports and publishes the headline quantities as custom metrics,
// so `go test -bench=. -benchmem` reproduces the whole evaluation.
package aibench_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"aibench"
	"aibench/internal/core"
	"aibench/internal/gpusim"
	"aibench/internal/models"
	"aibench/internal/tensor"
)

// characterizeAll profiles bs on dev through a Plan runner — the
// benches' replacement for the retired CharacterizeAll facades.
func characterizeAll(tb testing.TB, s *aibench.Suite, bs []*aibench.Benchmark, dev aibench.Device) []aibench.Characterization {
	tb.Helper()
	ids := make([]string, len(bs))
	for i, b := range bs {
		ids[i] = b.ID
	}
	runner, err := s.NewRunner(aibench.Plan{Kind: aibench.RunCharacterize, Benchmarks: ids, Device: dev})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := runner.Run(context.Background(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Characterizations
}

// BenchmarkTable1 regenerates the suite comparison matrix.
func BenchmarkTable1(b *testing.B) {
	suite := aibench.NewSuite()
	for i := 0; i < b.N; i++ {
		suite.Report("table1", io.Discard, aibench.TitanXP(), 1)
	}
	aiTasks := 0
	for _, row := range core.Table1() {
		if row.AIBench {
			aiTasks++
		}
	}
	b.ReportMetric(float64(aiTasks), "aibench_tasks")
}

// BenchmarkTable2 regenerates the Internet-service scenario mapping.
func BenchmarkTable2(b *testing.B) {
	suite := aibench.NewSuite()
	for i := 0; i < b.N; i++ {
		suite.Report("table2", io.Discard, aibench.TitanXP(), 1)
	}
	b.ReportMetric(float64(len(core.Table2())), "scenarios")
}

// BenchmarkTable3 regenerates the component-benchmark roster.
func BenchmarkTable3(b *testing.B) {
	suite := aibench.NewSuite()
	for i := 0; i < b.N; i++ {
		suite.Report("table3", io.Discard, aibench.TitanXP(), 1)
	}
	b.ReportMetric(float64(len(suite.AIBench())), "component_benchmarks")
}

// BenchmarkTable4 regenerates the hardware configuration.
func BenchmarkTable4(b *testing.B) {
	suite := aibench.NewSuite()
	for i := 0; i < b.N; i++ {
		suite.Report("table4", io.Discard, aibench.TitanXP(), 1)
	}
	b.ReportMetric(aibench.TitanXP().PeakGFLOPs(), "xp_peak_gflops")
	b.ReportMetric(aibench.TitanRTX().PeakGFLOPs(), "rtx_peak_gflops")
}

// BenchmarkTable5 reproduces the run-to-run variation measurements.
func BenchmarkTable5(b *testing.B) {
	suite := aibench.NewSuite()
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, bench := range suite.AIBench() {
			res := bench.MeasureVariation(1234)
			if res.Measured > worst {
				worst = res.Measured
			}
		}
	}
	// Paper: variation ranges 0%..38.46%; 3D Face Recognition largest.
	b.ReportMetric(worst*100, "max_cv_pct")
	c8 := suite.Benchmark("DC-AI-C8").MeasureVariation(1234)
	b.ReportMetric(c8.Measured*100, "face3d_cv_pct_paper_38.46")
	c9 := suite.Benchmark("DC-AI-C9").MeasureVariation(1234)
	b.ReportMetric(c9.Measured*100, "objdet_cv_pct_paper_0")
}

// BenchmarkTable6 reproduces the training-cost table and the simulated
// epoch times on the TITAN RTX.
func BenchmarkTable6(b *testing.B) {
	suite := aibench.NewSuite()
	dev := aibench.TitanRTX()
	var simIC float64
	for i := 0; i < b.N; i++ {
		ic := suite.Benchmark("DC-AI-C1")
		simIC = gpusim.EpochTime(ic.Spec(), ic.DatasetSamples, ic.BatchSize, dev)
	}
	// Paper: Image Classification epoch = 10516.91 s on the Titan RTX.
	b.ReportMetric(simIC, "sim_ic_epoch_s_paper_10516")
	c := suite.Costs()
	b.ReportMetric(c.AIBenchFullHours, "aibench_hours_paper_225")
	b.ReportMetric(c.MLPerfHours, "mlperf_hours_paper_362")
}

// BenchmarkTable7 reproduces the hotspot-function census.
func BenchmarkTable7(b *testing.B) {
	suite := aibench.NewSuite()
	for i := 0; i < b.N; i++ {
		suite.Report("table7", io.Discard, aibench.TitanXP(), 1)
	}
	cs := characterizeAll(b, suite, suite.AIBench(), aibench.TitanXP())
	names := map[string]bool{}
	for _, c := range cs {
		for _, h := range c.Hotspots {
			names[h.Name] = true
		}
	}
	b.ReportMetric(float64(len(names)), "distinct_functions")
}

// BenchmarkFigure1a reproduces the coverage comparison and its peak
// ratios (paper: 1.3x..6.4x).
func BenchmarkFigure1a(b *testing.B) {
	suite := aibench.NewSuite()
	dev := aibench.TitanXP()
	var f, p, e float64
	for i := 0; i < b.N; i++ {
		ai := core.CoverageOf(characterizeAll(b, suite, suite.AIBench(), dev))
		ml := core.CoverageOf(characterizeAll(b, suite, suite.MLPerf(), dev))
		f, p, e = core.PeakRatios(ai, ml)
	}
	b.ReportMetric(f, "flops_peak_ratio")
	b.ReportMetric(p, "params_peak_ratio")
	b.ReportMetric(e, "epochs_peak_ratio")
}

// BenchmarkFigure2 reproduces the epochs-vs-FLOPs scatter.
func BenchmarkFigure2(b *testing.B) {
	suite := aibench.NewSuite()
	for i := 0; i < b.N; i++ {
		suite.Report("figure2", io.Discard, aibench.TitanXP(), 1)
	}
	od := suite.Characterize("DC-AI-C9", aibench.TitanXP())
	ltr := suite.Characterize("DC-AI-C16", aibench.TitanXP())
	// Paper: FLOPs range 0.09 .. 157802 M-FLOPs.
	b.ReportMetric(od.MFLOPs, "max_mflops_paper_157802")
	b.ReportMetric(ltr.MFLOPs, "min_mflops_paper_0.09")
}

// BenchmarkFigure3 reproduces the 24 micro-architectural radars.
func BenchmarkFigure3(b *testing.B) {
	suite := aibench.NewSuite()
	for i := 0; i < b.N; i++ {
		suite.Report("figure3", io.Discard, aibench.TitanXP(), 1)
	}
	cs := characterizeAll(b, suite, suite.All(), aibench.TitanXP())
	lo, hi := 1.0, 0.0
	for _, c := range cs {
		v := c.Metrics.IPCEfficiency
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	// Paper: IPC efficiency spans ~0.25 (learning to rank) to ~0.77.
	b.ReportMetric(lo, "min_ipc_eff_paper_0.25")
	b.ReportMetric(hi, "max_ipc_eff_paper_0.77")
}

// BenchmarkFigure4 reproduces the t-SNE clustering and subset coverage.
func BenchmarkFigure4(b *testing.B) {
	suite := aibench.NewSuite()
	var res aibench.ClusterResult
	for i := 0; i < b.N; i++ {
		res = suite.Cluster(3, 1)
	}
	covers := 0.0
	if res.SubsetCoversAll {
		covers = 1
	}
	b.ReportMetric(covers, "subset_covers_all_clusters")
	b.ReportMetric(res.Silhouette, "silhouette")
}

// BenchmarkFigure5 reproduces the runtime breakdown.
func BenchmarkFigure5(b *testing.B) {
	suite := aibench.NewSuite()
	for i := 0; i < b.N; i++ {
		suite.Report("figure5", io.Discard, aibench.TitanXP(), 1)
	}
	// Paper: learning to rank spends outsized time in element-wise /
	// data-arrangement kernels rather than convolutions.
	ltr := suite.Characterize("DC-AI-C16", aibench.TitanXP())
	b.ReportMetric(ltr.Shares[gpusim.Elementwise]*100, "ltr_elementwise_pct")
	ic := suite.Characterize("DC-AI-C1", aibench.TitanXP())
	b.ReportMetric(ic.Shares[gpusim.Convolution]*100, "ic_conv_pct")
}

// BenchmarkFigure6 reproduces the hotspot histogram (paper: 30 vs 9
// functions above 10% of runtime).
func BenchmarkFigure6(b *testing.B) {
	suite := aibench.NewSuite()
	var ai, ml [4]int
	for i := 0; i < b.N; i++ {
		ai = core.HotspotHistogram(characterizeAll(b, suite, suite.AIBench(), aibench.TitanXP()))
		ml = core.HotspotHistogram(characterizeAll(b, suite, suite.MLPerf(), aibench.TitanXP()))
	}
	b.ReportMetric(float64(ai[2]+ai[3]), "aibench_over10pct_paper_30")
	b.ReportMetric(float64(ml[2]+ml[3]), "mlperf_over10pct_paper_9")
}

// BenchmarkFigure7 reproduces the stall breakdown (paper: element-wise
// kernels ≈70% memory-dependency stalls).
func BenchmarkFigure7(b *testing.B) {
	suite := aibench.NewSuite()
	var ew gpusim.StallBreakdown
	for i := 0; i < b.N; i++ {
		stalls := aibench.NewSuite().Benchmark("DC-AI-C16").Characterize(aibench.TitanXP()).Stalls
		ew = stalls[gpusim.Elementwise]
	}
	_ = suite
	b.ReportMetric(ew.MemDepend*100, "elementwise_memdep_pct_paper_70")
	b.ReportMetric(ew.ExecDepend*100, "elementwise_execdep_pct")
}

// BenchmarkSubsetSavings reproduces the Section 5.4.2 headline numbers.
func BenchmarkSubsetSavings(b *testing.B) {
	suite := aibench.NewSuite()
	var c aibench.CostSummary
	for i := 0; i < b.N; i++ {
		c = suite.Costs()
	}
	b.ReportMetric(c.SubsetVsAIBench*100, "subset_vs_aibench_pct_paper_41")
	b.ReportMetric(c.SubsetVsMLPerf*100, "subset_vs_mlperf_pct_paper_63")
	b.ReportMetric(c.AIBenchVsMLPerf*100, "aibench_vs_mlperf_pct_paper_37")
}

// benchKernels lists the kernels a compute benchmark sweeps, as values
// the benchmark calls directly. The sub-benchmark names carry
// kernel=<name>, so the perf trajectory separates kernel wins from
// orchestration wins.
func benchKernels() []tensor.Kernels {
	var out []tensor.Kernels
	for _, name := range tensor.KernelNames() {
		k, _ := tensor.LookupKernels(name)
		out = append(out, k)
	}
	return out
}

// BenchmarkMatMul sweeps GEMM shapes under each compute kernel — the
// suite's hottest primitive, and the headline number for the blocked
// kernel (target: ≥1.5× over naive at 512). Square sizes keep their
// historical n=<N> names; the skinny (inner-product-dominated) and fat
// (outer-product-dominated) shapes are the other two shape classes
// bench/ probes. GFLOPS counts a multiply-add as two floating-point
// operations.
func BenchmarkMatMul(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"n=128", 128, 128, 128},
		{"n=256", 256, 256, 256},
		{"n=512", 512, 512, 512},
		{"n=1024", 1024, 1024, 1024},
		{"skinny=64x2048x64", 64, 2048, 64},
		{"fat=2048x64x2048", 2048, 64, 2048},
	}
	for _, k := range benchKernels() {
		b.Run("kernel="+k.Name(), func(b *testing.B) {
			for _, sh := range shapes {
				b.Run(sh.name, func(b *testing.B) {
					rng := rand.New(rand.NewSource(7))
					x := tensor.Randn(rng, 0, 1, sh.m, sh.k)
					y := tensor.Randn(rng, 0, 1, sh.k, sh.n)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						k.MatMul(x, y)
					}
					flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
				})
			}
		})
	}
}

// BenchmarkConv2D measures the im2col-GEMM convolution under each
// compute kernel at a ResNet-block-like geometry.
func BenchmarkConv2D(b *testing.B) {
	for _, k := range benchKernels() {
		b.Run("kernel="+k.Name(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			x := tensor.Randn(rng, 0, 1, 8, 32, 32, 32)
			w := tensor.Randn(rng, 0, 1, 64, 32, 3, 3)
			p := tensor.Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Conv2D(x, w, p)
			}
		})
	}
}

// BenchmarkConv2DBackward measures both gradients of one convolution
// under each compute kernel, at the shape bench/ probes forward
// (8×16×32×32 ⊛ 32×16×3×3). B/op is the point: naive materializes the
// column matrix and its gradient, the GEBP engine allocates the two
// results and nothing else (CI holds blocked to ≤ ¼ of naive's bytes).
func BenchmarkConv2DBackward(b *testing.B) {
	for _, k := range benchKernels() {
		b.Run("kernel="+k.Name(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			x := tensor.Randn(rng, 0, 1, 8, 16, 32, 32)
			w := tensor.Randn(rng, 0, 1, 32, 16, 3, 3)
			g := tensor.Randn(rng, 0, 1, 8, 32, 32, 32)
			p := tensor.Conv2DParams{Kernel: 3, Stride: 1, Padding: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Conv2DBackward(x, w, g, p, true, true)
			}
		})
	}
}

// BenchmarkSuiteScaled measures a full 24-benchmark quasi-entire suite
// pass through the real training stack at several widths of the suite
// loop; workers-1 is the plain serial loop. On a 4+ core machine
// workers-4 should run at least 2x faster wall-clock than workers-1,
// with bitwise-identical results (TestPlanSessionsMatchSerialLoop).
func BenchmarkSuiteScaled(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			suite := aibench.NewSuite()
			runner, err := suite.NewRunner(aibench.Plan{
				Kind: aibench.RunSession, Session: aibench.QuasiEntireSession, Seed: 42,
				Epochs: 1, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCharacterizeAllWorkers measures the pooled characterization
// of all 24 paper-scale models.
func BenchmarkCharacterizeAllWorkers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			suite := aibench.NewSuite()
			runner, err := suite.NewRunner(aibench.Plan{
				Kind: aibench.RunCharacterize, Device: aibench.TitanXP(), Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaledTrainingEpoch measures one real scaled training epoch of
// each subset benchmark through the full autograd stack.
func BenchmarkScaledTrainingEpoch(b *testing.B) {
	for _, id := range []string{"DC-AI-C1", "DC-AI-C9", "DC-AI-C16"} {
		id := id
		b.Run(id, func(b *testing.B) {
			tr, err := models.NewTrainer(aibench.NewSuite().Benchmark(id).Factory(42))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.TrainEpoch(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatedIteration measures the GPU-simulator lowering and
// execution cost for the two detection-scale models.
func BenchmarkSimulatedIteration(b *testing.B) {
	suite := aibench.NewSuite()
	for _, id := range []string{"DC-AI-C1", "DC-AI-C9"} {
		id := id
		bench := suite.Benchmark(id)
		spec := bench.Spec()
		b.Run(id, func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				t = gpusim.IterationTime(spec, bench.BatchSize, aibench.TitanXP())
			}
			b.ReportMetric(t*1000, "sim_iter_ms")
		})
	}
}
