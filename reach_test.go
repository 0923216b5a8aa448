package aibench_test

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testOnly names the exported internal funcs and types that only tests
// call: test hooks, shared test helpers and comparators.
var testOnly = map[string]bool{
	"internal/analyzers.LoadDir":          true,
	"internal/tensor.SetArenaResetMode":   true,
	"internal/tensor.UnplacedDispatches":  true,
	"internal/tensor.AllClose":            true,
	"internal/tensor.MaxAbs":              true,
	"internal/tensor/kerneltest.Count":    true,
	"internal/tensor/kerneltest.Counting": true,
	"internal/tensor/kerneltest.Traced":   true,
}

// TestEveryInternalNameIsReached keeps the library what the suite runs:
// every exported top-level func and type of an internal package must be
// named by non-test code outside its own declaration, or be listed in
// testOnly. It reads syntax only, so a name is matched by its spelling.
func TestEveryInternalNameIsReached(t *testing.T) {
	decls := map[string][2]token.Pos{}  // "dir.Name" → declaration span
	idents := map[string][]*ast.Ident{} // dir → identifiers not after a dot
	used, fset := map[string]bool{}, token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && path != "." && (d.Name() == "testdata" || d.Name()[0] == '.') {
			return cmp.Or(err, filepath.SkipDir)
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, imports := filepath.ToSlash(filepath.Dir(path)), map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, "aibench/")
		}
		afterDot := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil && n.Name.IsExported() {
					decls[dir+"."+n.Name.Name] = [2]token.Pos{n.Pos(), n.End()}
				}
			case *ast.TypeSpec:
				if n.Name.IsExported() {
					decls[dir+"."+n.Name.Name] = [2]token.Pos{n.Pos(), n.End()}
				}
			case *ast.SelectorExpr:
				afterDot[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !afterDot[n] {
					idents[dir] = append(idents[dir], n)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, span := range decls {
		dot := strings.LastIndex(key, ".")
		dir, name := key[:dot], key[dot+1:]
		for _, id := range idents[dir] {
			used[key] = used[key] || id.Name == name && (id.Pos() < span[0] || id.Pos() >= span[1])
		}
		if strings.HasPrefix(dir, "internal/") && !used[key] && !testOnly[key] {
			t.Errorf("%s is reached by no non-test code: delete it, or list it in testOnly if only tests need it", key)
		}
	}
}
