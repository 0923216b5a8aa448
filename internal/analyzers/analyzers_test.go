package analyzers

// Golden tests: each analyzer against its testdata package, checked
// under a masquerade import path so the scope config is part of what
// the test exercises; an _outofscope twin (or the tensor package
// itself, for kernelgate) asserts the analyzer stays silent where the
// invariant does not bind. TestTreeIsClean is the no-false-positive
// corpus: the entire real module must produce zero diagnostics, and
// TestSeededFixtureFails proves the suite can fail by running it over
// the deliberate-violation fixture CI uses.

import (
	"strings"
	"testing"
)

func TestMaprange(t *testing.T) {
	runGolden(t, []*Analyzer{Maprange}, "testdata/maprange", "aibench/internal/core")
}

func TestMaprangeOutOfScope(t *testing.T) {
	runGolden(t, []*Analyzer{Maprange}, "testdata/maprange_outofscope", "aibench/internal/gpusim")
}

func TestSeedpurity(t *testing.T) {
	runGolden(t, []*Analyzer{Seedpurity}, "testdata/seedpurity", "aibench/internal/models")
}

func TestSeedpurityOutOfScope(t *testing.T) {
	runGolden(t, []*Analyzer{Seedpurity}, "testdata/seedpurity_outofscope", "aibench/internal/parallel")
}

func TestCtxloop(t *testing.T) {
	runGolden(t, []*Analyzer{Ctxloop}, "testdata/ctxloop", "aibench/internal/core")
}

func TestKernelgate(t *testing.T) {
	runGolden(t, []*Analyzer{Kernelgate}, "testdata/kernelgate", "aibench/internal/nn")
}

func TestKernelgateInsideTensor(t *testing.T) {
	runGolden(t, []*Analyzer{Kernelgate}, "testdata/kernelgate_tensor", "aibench/internal/tensor")
}

func TestSinkerr(t *testing.T) {
	runGolden(t, []*Analyzer{Sinkerr}, "testdata/sinkerr", "aibench/cmd/aibench")
}

func TestHeapalloc(t *testing.T) {
	runGolden(t, []*Analyzer{Heapalloc}, "testdata/heapalloc", "aibench/internal/autograd")
}

func TestHeapallocInsideNN(t *testing.T) {
	runGolden(t, []*Analyzer{Heapalloc}, "testdata/heapalloc_nn", "aibench/internal/nn")
}

// TestHeapallocInsideData: internal/data's draws are in scope — each
// takes the arena its tensors come from — and its constructors are not.
func TestHeapallocInsideData(t *testing.T) {
	runGolden(t, []*Analyzer{Heapalloc}, "testdata/heapalloc_data", "aibench/internal/data")
}

func TestHeapallocOutOfScope(t *testing.T) {
	runGolden(t, []*Analyzer{Heapalloc}, "testdata/heapalloc_outofscope", "aibench/internal/models")
}

// TestDirectives checks directive misuse programmatically: the
// lintdirective diagnostic lands on the directive's own line, where a
// want comment cannot sit without becoming the justification text.
func TestDirectives(t *testing.T) {
	pkg := mustLoadDir(t, "testdata/directives", "aibench/internal/core")
	diags, err := Run([]*Package{pkg}, []*Analyzer{Maprange}, false)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := countByAnalyzer(diags)
	// Three misuses (bare, no justification, unknown analyzer), and the
	// three map walks they failed to suppress; the two justified
	// directives suppress theirs.
	if got["lintdirective"] != 3 || got["maprange"] != 3 || len(diags) != 6 {
		t.Errorf("got %v (want 3 lintdirective + 3 maprange):\n%s", got, describe(diags))
	}
	misuses := map[string]bool{}
	for _, d := range diags {
		if d.Analyzer != "lintdirective" {
			continue
		}
		for _, frag := range []string{"malformed directive", "no justification", "unknown analyzer"} {
			if strings.Contains(d.Message, frag) {
				misuses[frag] = true
			}
		}
	}
	if len(misuses) != 3 {
		t.Errorf("directive misuse kinds reported = %v, want all three:\n%s", misuses, describe(diags))
	}
}

// TestSeededFixtureFails runs the whole suite over the
// deliberate-violation fixture with the scope override CI uses and
// requires every analyzer to fire, heapalloc on both a heap tensor and
// a heap graph node: the gate demonstrably can fail.
func TestSeededFixtureFails(t *testing.T) {
	pkg := mustLoadDir(t, "testdata/fixture", "aibench/internal/lintfixture")
	diags, err := Run([]*Package{pkg}, All(), true)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := countByAnalyzer(diags)
	for _, a := range All() {
		if got[a.Name] == 0 {
			t.Errorf("seeded fixture did not trip %s:\n%s", a.Name, describe(diags))
		}
	}
	if got["heapalloc"] != 2 {
		t.Errorf("seeded fixture tripped heapalloc %d times, want 2 (Doubled's tensor, Wrapped's node):\n%s", got["heapalloc"], describe(diags))
	}
}

// TestTreeIsClean is the no-false-positive corpus: the shipped module,
// with its justified suppressions, must lint clean — the same
// invocation CI's lint gate runs.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, err := Run(pkgs, All(), false)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("tree is not lint-clean:\n%s", describe(diags))
	}
}
