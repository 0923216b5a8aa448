// Package analyzers is the suite's determinism lint: six custom
// static analyzers that machine-check, at build time, the invariants
// every reproducibility claim in this repo rests on — bitwise-equal
// results for any shard count, cross-kernel bitwise equality, and
// byte-identical replay rebuilds. Runtime tests exercise the
// invariants on the code paths they happen to cover; the analyzers
// enforce them on every call site of every push, before the code runs.
//
// The analyzers:
//
//   - maprange: no unordered map iteration in result-affecting
//     packages (map order is random per run; a map walk that feeds a
//     record, a report line, or a float accumulation breaks replay
//     byte-identity).
//   - seedpurity: no process-global math/rand and no time.Now in
//     deterministic packages (all randomness flows from the benchmark
//     seed through explicit rand.New(rand.NewSource(seed)) streams).
//   - ctxloop: every epoch/session-grained training loop in the
//     execution engine checks its context, locking in the Plan
//     Runner's cancellation contract (SIGINT stops at the next epoch
//     boundary, never trains out the budget).
//   - kernelgate: GEMM-shaped triple loops and whole-tensor
//     element-wise loops outside internal/tensor must route through
//     the tensor.Kernels dispatch / tensor helpers, so the
//     cross-kernel bitwise-equality contract covers all tensor math.
//   - sinkerr: the error from a result-sink Write/Encode is never
//     dropped (sinks are failable; a swallowed error silently
//     truncates the persisted longitudinal result stream).
//   - heapalloc: op bodies of internal/tensor and internal/autograd
//     allocate their results where their operands are placed — in the
//     owning benchmark's step arena — never with a heap constructor,
//     and build no graph node on the heap (&Value{…}, new(Value)); the
//     numbers would not change, only the mallocs would come back. The
//     draws of internal/data take their tensors from the arena they
//     are given in the same way.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, diagnostics, analysistest-style golden tests) but is built on
// the standard library alone — go/parser + go/types over export data
// from `go list -export` — because this module deliberately has no
// third-party dependencies.
//
// A finding is suppressed with a justified directive on the flagged
// line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a bare directive is itself a finding, so
// every suppression in the tree documents why the invariant holds
// anyway.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check, in the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite could later be
// rehosted on the real driver without touching the checks.
type Analyzer struct {
	// Name is the analyzer's registry key, used in diagnostics and
	// //lint:allow directives.
	Name string
	// Doc is the one-line invariant statement `aibench-lint -list`
	// prints.
	Doc string
	// Scope reports whether a package (by import path) is subject to
	// this analyzer; nil means every package. The driver's ScopeAll
	// overrides it (used by the CI deliberate-violation fixture, whose
	// module path is not aibench).
	Scope func(pkgPath string) bool
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer, plus the reporting hook.
type Pass struct {
	Analyzer *Analyzer
	Path     string // import path the package was checked as
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ObjectOf returns the object an identifier uses or defines, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// Diagnostic is one finding: which analyzer, where, and why it
// violates the invariant.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the determinism-lint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Maprange,
		Seedpurity,
		Ctxloop,
		Kernelgate,
		Sinkerr,
		Heapalloc,
	}
}

// ByName returns the named analyzer from All, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to every loaded package, honouring each
// analyzer's Scope (unless scopeAll forces every package in scope) and
// the //lint:allow suppression directives, and returns the surviving
// diagnostics in file/line order. Directive misuse — a missing
// justification, an unknown analyzer name — is reported as a
// diagnostic itself, so suppressions stay auditable.
func Run(pkgs []*Package, as []*Analyzer, scopeAll bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs, bad := parseDirectives(pkg.Fset, pkg.Files, as)
		diags = append(diags, bad...)
		var pkgDiags []Diagnostic
		for _, a := range as {
			if !scopeAll && a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &pkgDiags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzers: %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
		for _, d := range pkgDiags {
			if !dirs.allows(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// directive is one parsed //lint:allow comment.
type directive struct {
	analyzer string
	reason   string
}

// directiveSet indexes directives by file and line.
type directiveSet map[string]map[int][]directive

// allows reports whether a directive for the diagnostic's analyzer
// sits on the flagged line or the line directly above it.
func (ds directiveSet) allows(d Diagnostic) bool {
	lines := ds[d.Pos.Filename]
	for _, ln := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[ln] {
			if dir.analyzer == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// allowPrefix introduces a suppression directive comment.
const allowPrefix = "lint:allow"

// parseDirectives collects every //lint:allow directive in the files
// and reports malformed ones (no justification, unknown analyzer) as
// diagnostics under the pseudo-analyzer name "lintdirective".
func parseDirectives(fset *token.FileSet, files []*ast.File, as []*Analyzer) (directiveSet, []Diagnostic) {
	known := map[string]bool{}
	for _, a := range as {
		known[a.Name] = true
	}
	ds := directiveSet{}
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Analyzer: "lintdirective",
			Pos:      fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+allowPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					report(c.Pos(), "malformed directive %q: want //%s <analyzer> <reason>", c.Text, allowPrefix)
					continue
				}
				name := fields[0]
				if !known[name] {
					report(c.Pos(), "//%s names unknown analyzer %q", allowPrefix, name)
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), name))
				if reason == "" {
					report(c.Pos(), "//%s %s has no justification: every suppression must say why the invariant still holds", allowPrefix, name)
					continue
				}
				pos := fset.Position(c.Pos())
				lines := ds[pos.Filename]
				if lines == nil {
					lines = map[int][]directive{}
					ds[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], directive{analyzer: name, reason: reason})
			}
		}
	}
	return ds, bad
}

// walkStack traverses each file pre-order, handing fn every node along
// with the stack of its ancestors (outermost first, not including n
// itself). Returning false prunes the subtree.
func walkStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the innermost function declaration or literal
// body in the stack, or nil.
func enclosingFunc(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// isPkgFunc reports whether obj is the package-level function
// pkgPath.name (methods have a receiver and never match).
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}
