package models

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aibench/internal/workload"
)

func TestRegistryCounts(t *testing.T) {
	if len(AIBenchEntries()) != 17 {
		t.Fatalf("AIBench entries = %d, want 17", len(AIBenchEntries()))
	}
	if len(MLPerfEntries()) != 7 {
		t.Fatalf("MLPerf entries = %d, want 7", len(MLPerfEntries()))
	}
	if len(AllEntries()) != 24 {
		t.Fatalf("total entries = %d, want 24", len(AllEntries()))
	}
	seen := map[string]bool{}
	for _, e := range AllEntries() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

// entryOf returns the registry row of id.
func entryOf(t testing.TB, id string) Entry {
	t.Helper()
	for _, e := range AllEntries() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no entry %s", id)
	return Entry{}
}

// serialEpochs trains b for the given epochs on one Trainer and
// returns the epoch losses. It panics on a refusal, which no
// registered benchmark earns: every phase list reports, and every
// phase makes one grain of a one-grain step.
func serialEpochs(b Benchmark, epochs int) []float64 {
	tr, err := NewTrainer(b)
	if err != nil {
		panic(err)
	}
	losses := make([]float64, epochs)
	for ep := range losses {
		if losses[ep], err = tr.TrainEpoch(); err != nil {
			panic(err)
		}
	}
	return losses
}

// TestOneSerialPath pins the one serial path: every one of the 24
// benchmarks is accepted by the one-grain phased driver, Trainer, and
// none keeps a serial epoch of its own.
func TestOneSerialPath(t *testing.T) {
	for _, e := range AllEntries() {
		b := e.Factory(1)
		if _, err := NewTrainer(b); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		if _, own := reflect.TypeOf(b).MethodByName("TrainEpoch"); own {
			t.Errorf("%s: keeps a serial epoch of its own", e.ID)
		}
	}
}

// TestPhasesBuildNoClosures pins the grain contract's shape: what a
// phase draws lives on the instance and Grain reads it, so no
// BeginPhase or Grain method of the package builds a function literal.
func TestPhasesBuildNoClosures(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset, methods := token.NewFileSet(), 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || (fn.Name.Name != "BeginPhase" && fn.Name.Name != "Grain") {
				continue
			}
			methods++
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					t.Errorf("%s: %s builds a function literal", fset.Position(n.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
	if methods == 0 {
		t.Fatal("found no BeginPhase or Grain method")
	}
}

// flatGrads returns the gradients of b's parameters, flattened in
// parameter order (zeros for a parameter no grain reached).
func flatGrads(b Benchmark) []float64 {
	var out []float64
	for _, p := range b.Module().Params() {
		if g := p.Value.Grad; g != nil {
			out = append(out, g.Data...)
		} else {
			out = append(out, make([]float64, p.Value.Data.Size())...)
		}
	}
	return out
}

func zeroGrads(b Benchmark) {
	for _, p := range b.Module().Params() {
		p.Value.ZeroGrad()
	}
}

// TestOneGrainIsTheShardedObjective: the benchmarks whose step is a
// batch of units — DC-AI-C6's utterances, DC-AI-C17's truncated-BPTT
// segments, MLPerf-RL's episodes — train one objective serial or
// sharded. Two instances built from one seed take every phase of a
// first step, one at one grain and one at ShardGrains: the one grain's
// loss, sample count and flattened gradient are the sample-weighted sum
// over the ShardGrains grains. Both instances then apply the sharded
// gradient, so the next phase starts from the same weights.
func TestOneGrainIsTheShardedObjective(t *testing.T) {
	const tol = 1e-12
	for _, id := range []string{"DC-AI-C6", "DC-AI-C17", "MLPerf-RL"} {
		t.Run(id, func(t *testing.T) {
			e := entryOf(t, id)
			serial, sharded := e.Factory(42), e.Factory(42)
			for _, b := range []Benchmark{serial, sharded} {
				b.BeginEpoch()
				b.Arena().Reset()
			}
			for p, ph := range serial.Phases() {
				_, lo, hi := GrainUnits(serial.BeginPhase(p, 1), 1, 0)
				zeroGrads(serial)
				loss, n := serial.Grain(p, lo, hi)
				got := flatGrads(serial)

				units := sharded.BeginPhase(p, ShardGrains)
				count, _, _ := GrainUnits(units, ShardGrains, 0)
				losses, counts, grads, samples := make([]float64, count), make([]int, count), make([][]float64, count), 0
				for g := range count {
					_, lo, hi := GrainUnits(units, ShardGrains, g)
					zeroGrads(sharded)
					losses[g], counts[g] = sharded.Grain(p, lo, hi)
					grads[g] = flatGrads(sharded)
					samples += counts[g]
				}
				wantLoss, want := 0.0, make([]float64, len(got))
				for g := range count {
					w := float64(counts[g]) / float64(samples)
					wantLoss += w * losses[g]
					for j, v := range grads[g] {
						want[j] += w * v
					}
				}
				if n != samples || math.Abs(loss-wantLoss) > tol {
					t.Errorf("phase %q: one grain = (%v, %d), %d grains = (%v, %d)", ph.Name, loss, n, count, wantLoss, samples)
				}
				worst := 0.0
				for j := range want {
					worst = max(worst, math.Abs(got[j]-want[j]))
				}
				if worst > tol {
					t.Errorf("phase %q: gradient differs from the %d grains' weighted sum by %g", ph.Name, count, worst)
				}
				for _, b := range []Benchmark{serial, sharded} {
					off := 0
					for _, pr := range b.Module().Params() {
						off += copy(pr.Value.EnsureGrad().Data, want[off:])
					}
					b.ApplyPhase(p)
				}
			}
		})
	}
}

// TestEveryBenchmarkExecutes builds each of the 24 benchmarks, runs one
// training epoch through the full autograd stack, and sanity-checks the
// quality metric and its row's name and spec.
func TestEveryBenchmarkExecutes(t *testing.T) {
	for _, e := range AllEntries() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if e.Name == "" {
				t.Fatal("empty name")
			}
			b := e.Factory(42)
			loss := serialEpochs(b, 1)[0]
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				t.Fatalf("loss = %g", loss)
			}
			q := b.Quality()
			if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
				t.Fatalf("quality = %g", q)
			}
			if len(b.Module().Params()) == 0 {
				t.Fatal("no parameters")
			}
			spec := e.Spec()
			if len(spec.Layers) == 0 {
				t.Fatal("empty spec")
			}
			if spec.FLOPs() <= 0 || spec.Params() <= 0 {
				t.Fatalf("spec FLOPs=%g params=%d", spec.FLOPs(), spec.Params())
			}
		})
	}
}

// TestTrainingImprovesLoss verifies gradient descent is actually working
// end to end for a representative sample of architectures: the loss
// after several epochs must drop below the first epoch's.
func TestTrainingImprovesLoss(t *testing.T) {
	cases := []struct {
		id     string
		mk     func() Benchmark
		epochs int
	}{
		{"cnn", func() Benchmark { return NewImageClassification(1) }, 4},
		{"transformer", func() Benchmark { return NewTextToText(1) }, 6},
		{"lstm-attn", func() Benchmark { return NewTextSummarization(1) }, 6},
		{"gru-asr", func() Benchmark { return NewSpeechRecognition(1) }, 6},
		{"ncf", func() Benchmark { return NewRecommendation(1) }, 6},
		{"recon3d", func() Benchmark { return NewRecon3D(1) }, 6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			losses := serialEpochs(c.mk(), c.epochs)
			if first, last := losses[0], losses[c.epochs-1]; last >= first {
				t.Fatalf("loss did not improve: first %g, last %g", first, last)
			}
		})
	}
}

// TestFastBenchmarksReachTarget trains the quick benchmarks to their
// scaled quality targets — the integration proof that entire scaled
// training sessions complete.
func TestFastBenchmarksReachTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("training sessions skipped in -short mode")
	}
	cases := []struct {
		id        string
		maxEpochs int
	}{
		{"DC-AI-C1", 15},
		{"DC-AI-C3", 40},
		{"DC-AI-C6", 20},
		{"DC-AI-C10", 60},
		{"DC-AI-C14", 60},
		{"DC-AI-C16", 60},
		{"MLPerf-RL", 40},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			e := entryOf(t, c.id)
			b := e.Factory(42)
			tr, err := NewTrainer(b)
			if err != nil {
				t.Fatal(err)
			}
			for ep := 0; ep < c.maxEpochs; ep++ {
				if _, err := tr.TrainEpoch(); err != nil {
					t.Fatal(err)
				}
				if e.MeetsTarget(b.Quality()) {
					return
				}
			}
			t.Fatalf("did not reach target %g within %d epochs (last quality %g)",
				e.ScaledTarget, c.maxEpochs, b.Quality())
		})
	}
}

func TestMeetsTargetDirections(t *testing.T) {
	ic := entryOf(t, "DC-AI-C1") // higher is better, target 0.90
	if ic.MeetsTarget(0.5) || !ic.MeetsTarget(0.95) {
		t.Fatal("higher-is-better direction wrong")
	}
	sr := entryOf(t, "DC-AI-C6") // lower is better, target 0.235
	if sr.MeetsTarget(0.5) || !sr.MeetsTarget(0.1) {
		t.Fatal("lower-is-better direction wrong")
	}
}

// TestSpecComplexityRanges checks the paper-scale analytic numbers match
// Section 5.2.1: AIBench parameters span ~0.03M to ~68.4M, Faster R-CNN
// and 3D reconstruction carry the largest FLOPs, Learning-to-Rank the
// smallest, Image-to-Text the most parameters, Spatial Transformer the
// fewest.
func TestSpecComplexityRanges(t *testing.T) {
	specs := map[string]workload.Model{}
	for _, e := range AIBenchEntries() {
		specs[e.ID] = e.Spec()
	}
	params := func(id string) float64 { return float64(specs[id].Params()) / 1e6 }
	flops := func(id string) float64 { return specs[id].FLOPs() / 1e6 }

	// Spatial Transformer ≈ 0.03M params (paper's least complex model).
	if p := params("DC-AI-C15"); p > 0.15 {
		t.Fatalf("STN params = %.3fM, want ≈0.03M", p)
	}
	// Image-to-Text ≈ 68.4M params (paper's most complex model).
	if p := params("DC-AI-C4"); math.Abs(p-68.4) > 14 {
		t.Fatalf("Image-to-Text params = %.1fM, want ≈68.4M", p)
	}
	// Most-complex / least-complex ordering.
	for id := range specs {
		if id == "DC-AI-C4" {
			continue
		}
		if params(id) > params("DC-AI-C4") {
			t.Fatalf("%s params %.1fM exceed Image-to-Text", id, params(id))
		}
	}
	// Learning-to-Rank has the smallest FLOPs (~0.09 M-FLOPs).
	for id := range specs {
		if id == "DC-AI-C16" {
			continue
		}
		if flops(id) < flops("DC-AI-C16") {
			t.Fatalf("%s FLOPs %.3fM below Learning-to-Rank's %.3fM", id, flops(id), flops("DC-AI-C16"))
		}
	}
	if f := flops("DC-AI-C16"); f > 1 {
		t.Fatalf("Learning-to-Rank FLOPs = %.3fM, want ≈0.09M", f)
	}
	// Object Detection and 3D Reconstruction have the largest FLOPs and
	// are approximately equal (paper: "approximate amounts").
	od, rc := flops("DC-AI-C9"), flops("DC-AI-C13")
	for id := range specs {
		if id == "DC-AI-C9" || id == "DC-AI-C13" {
			continue
		}
		if flops(id) > math.Max(od, rc) {
			t.Fatalf("%s FLOPs %.0fM exceed the detection/reconstruction pair", id, flops(id))
		}
	}
	if ratio := od / rc; ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("OD/3D FLOPs ratio = %.2f, want ≈1", ratio)
	}
	// Paper: AIBench FLOPs range 0.09..157802 M-FLOPs.
	if od < 50000 || od > 320000 {
		t.Fatalf("Object Detection FLOPs = %.0fM, want ≈157802M scale", od)
	}
}

func TestSharedBenchmarksConsistent(t *testing.T) {
	// The paper notes AIBench and MLPerf share the Image Classification,
	// Transformer translation and Recommendation models/datasets: specs
	// must match.
	for aibench, mlperf := range map[string]string{"DC-AI-C1": "MLPerf-IC", "DC-AI-C3": "MLPerf-TN", "DC-AI-C10": "MLPerf-RC"} {
		a, m := entryOf(t, aibench).Spec(), entryOf(t, mlperf).Spec()
		if a.FLOPs() != m.FLOPs() || a.Params() != m.Params() {
			t.Errorf("shared %s/%s specs differ", aibench, mlperf)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := NewImageClassification(5)
	b := NewImageClassification(5)
	pa, pb := a.Module().Params(), b.Module().Params()
	for i := range pa {
		for j := range pa[i].Value.Data.Data {
			if pa[i].Value.Data.Data[j] != pb[i].Value.Data.Data[j] {
				t.Fatal("same seed should give identical init")
			}
		}
	}
}

func TestNASSearchSpace(t *testing.T) {
	n := NewNAS(3)
	arch, ppl := n.BestArchitecture(4)
	if ppl <= 0 {
		t.Fatalf("perplexity = %g", ppl)
	}
	for d, c := range arch {
		if c < 0 || c >= archChoices[d] {
			t.Fatalf("decision %d out of range: %d", d, c)
		}
	}
}

func TestDetectorNMSSuppressesDuplicates(t *testing.T) {
	b := NewObjectDetection(3)
	serialEpochs(b, 3) // enough to produce some detections
	results := b.Detect(b.evalX)
	// After NMS, no two same-class detections in one image may overlap
	// by IoU >= 0.4.
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			a, c := results[i], results[j]
			if a.Image == c.Image && a.Box.Class == c.Box.Class && a.Box.IoU(c.Box) >= 0.4 {
				t.Fatal("NMS left overlapping duplicates")
			}
		}
	}
}
