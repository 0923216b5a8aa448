package models

import (
	"runtime"
	"strings"
	"testing"

	"aibench/internal/autograd"
)

// panicking is a benchmark whose evaluation fails part-way, after it has
// read its parameters' gradient marks.
type panicking struct {
	Benchmark
	sawGrad bool
}

func (p *panicking) Quality() float64 {
	for _, prm := range p.Module().Params() {
		p.sawGrad = p.sawGrad || prm.Value.RequiresGrad()
	}
	panic("evaluation failed")
}

// probing is a benchmark whose evaluation builds one node from each of
// its parameters and records whether a gradient could flow through any
// of them.
type probing struct {
	Benchmark
	gradNodes int
}

func (p *probing) Quality() float64 {
	for _, prm := range p.Module().Params() {
		if autograd.Scale(prm.Value, 1).RequiresGrad() {
			p.gradNodes++
		}
	}
	return p.Benchmark.Quality()
}

func allRequireGrad(t *testing.T, label string, b Benchmark) {
	t.Helper()
	for _, prm := range b.Module().Params() {
		if !prm.Value.RequiresGrad() {
			t.Fatalf("%s: parameter %s does not require a gradient", label, prm.Name)
		}
	}
}

// TestEvaluateMatchesQuality: for every benchmark, two twin instances
// train one epoch; Evaluate on one is bitwise the other's Quality, the
// nodes the evaluation builds from the parameters carry no gradient,
// every parameter requires a gradient again afterwards — also when
// Quality panics — and a further epoch on each twin returns
// bitwise-equal losses, so the evaluation left no trace on training.
func TestEvaluateMatchesQuality(t *testing.T) {
	for _, e := range AllEntries() {
		t.Run(e.ID, func(t *testing.T) {
			b1, b2 := e.Factory(7), e.Factory(7)
			sameBits(t, "first epoch", []float64{TrainEpoch(b1)}, []float64{TrainEpoch(b2)})

			probe := &probing{Benchmark: b1}
			got, want := Evaluate(probe), b2.Quality()
			sameBits(t, "Evaluate vs Quality", []float64{got}, []float64{want})
			if probe.gradNodes != 0 {
				t.Errorf("%d nodes built during Evaluate from parameters carry a gradient", probe.gradNodes)
			}
			allRequireGrad(t, "after Evaluate", b1)

			bad := &panicking{Benchmark: b1}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Quality's panic did not reach the caller")
					}
				}()
				Evaluate(bad)
			}()
			if bad.sawGrad {
				t.Error("a parameter required a gradient during Evaluate")
			}
			allRequireGrad(t, "after a panicking Evaluate", b1)

			sameBits(t, "epoch after evaluation", []float64{TrainEpoch(b1)}, []float64{TrainEpoch(b2)})
		})
	}
}

// nodeMallocs returns how many heap objects the process has allocated
// so far from inside autograd's node slab — a slab grown, or a node
// built over heap data — as recorded by the memory profile, which must
// be sampling every allocation.
func nodeMallocs() int64 {
	runtime.GC() // the profile is published a cycle behind
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for ok := false; !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if strings.HasSuffix(f.Function, "internal/autograd.(*nodes).take") {
				total += r.AllocObjects
				break
			}
		}
	}
	return total
}

// TestWarmedEvaluateMakesNoNodeMallocs: DC-AI-C3's evaluation builds
// its graph on the instance's arena, so once a first Evaluate has grown
// the node slab, the nodes of later ones cost the heap nothing.
func TestWarmedEvaluateMakesNoNodeMallocs(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	b := NewTextToText(3)
	before := nodeMallocs()
	Evaluate(b)
	warm := nodeMallocs()
	if warm == before {
		t.Fatal("the first Evaluate grew no node slab: the profile does not see node mallocs")
	}
	for range 3 {
		Evaluate(b)
	}
	if got := nodeMallocs() - warm; got != 0 {
		t.Errorf("three warmed Evaluates of DC-AI-C3 made %d graph-node mallocs, want 0", got)
	}
}
