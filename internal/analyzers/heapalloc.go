package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Heapalloc keeps the step arena the one way an op allocates. A tensor
// op's result — and every temporary of its backward — must be
// placed with its operands (tensor.ArenaOf(...).New, tensor.NewLike),
// so that a graph built on a benchmark's adopted parameters lives in
// that benchmark's arena and costs no mallocs in steady state. A heap
// constructor inside an op body compiles, computes the same numbers,
// and quietly puts three mallocs per call back on the training loop;
// nothing but the allocation metrics would ever notice.
//
// An op body is any function of internal/tensor, internal/autograd or
// internal/nn with a tensor operand — a parameter or receiver of type
// *tensor.Tensor or *autograd.Value, a slice of either — including the
// function literals nested in it. Inside one,
// calls to tensor.New, tensor.Full and tensor.Ones are flagged, and
// tensor.FromSlice when it wraps a fresh make or slice literal (over
// existing storage it is a view, not an allocation). Functions without
// a tensor operand are constructors and are not in scope.
//
// Graph nodes follow the same rule: an interior node is taken from the
// node slab of its data's arena (autograd's newNode), so an op body
// that builds an autograd.Value on the heap — &Value{…} or new(Value)
// — is flagged as well.
//
// So is a backward closure: an op body that assigns a function literal
// to an autograd.Value's back field allocates the closure on every
// call. A backward is a top-level function that reads the operands
// from the node's parents and anything else from its save area, and
// naming one allocates nothing.
//
// The documented exceptions carry a //lint:allow: a leaf's gradient
// buffer (Value.EnsureGrad), the Var leaf and a Const over heap or
// adopted storage, whose nodes may outlive every step (a Const over a
// tensor an arena handed out takes its node from that arena's slab,
// like an interior node), and Tensor.Detach, whose purpose is to
// outlive the arena.
var Heapalloc = &Analyzer{
	Name:  "heapalloc",
	Doc:   "tensor, autograd and nn op bodies allocate results where their operands are placed (tensor.ArenaOf/NewLike), never with a heap constructor, and build no graph node or backward closure on the heap",
	Scope: inOpPackages,
	Run:   runHeapalloc,
}

// heapConstructors are the tensor package's operand-less constructors.
var heapConstructors = []string{"New", "Full", "Ones", "FromSlice"}

func runHeapalloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasTensorOperand(pass, fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if heapNode(pass, n) {
					pass.Reportf(n.Pos(),
						"graph node built on the heap in the body of op %s: an interior node is taken from its data's arena (autograd's newNode) so it dies at the step's Reset",
						fn.Name.Name)
					return true
				}
				if lit := backClosure(pass, n); lit != nil {
					pass.Reportf(lit.Pos(),
						"backward closure in the body of op %s: a function literal allocates on every call; make the backward a top-level function that reads the node's parents and save area",
						fn.Name.Name)
					return true
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := heapConstructor(pass, call)
				if name == "" || (name == "FromSlice" && !freshSlice(call)) {
					return true
				}
				pass.Reportf(call.Pos(),
					"heap constructor tensor.%s in the body of op %s: allocate the result where the operands are placed (tensor.ArenaOf(operands...).New or tensor.NewLike) so it comes from the step arena",
					name, fn.Name.Name)
				return true
			})
		}
	}
	return nil
}

// hasTensorOperand reports whether fn's receiver or any parameter is a
// tensor operand.
func hasTensorOperand(pass *Pass, fn *ast.FuncDecl) bool {
	lists := []*ast.FieldList{fn.Recv, fn.Type.Params}
	for _, l := range lists {
		if l == nil {
			continue
		}
		for _, field := range l.List {
			if isOperandType(pass.TypeOf(field.Type)) {
				return true
			}
		}
	}
	return false
}

// heapNode reports whether n builds an autograd.Value on the heap:
// &Value{…} or new(Value).
func heapNode(pass *Pass, n ast.Node) bool {
	switch e := n.(type) {
	case *ast.UnaryExpr:
		lit, ok := e.X.(*ast.CompositeLit)
		return ok && e.Op == token.AND && isValueType(pass.TypeOf(lit))
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || len(e.Args) != 1 {
			return false
		}
		_, builtin := pass.ObjectOf(id).(*types.Builtin)
		return builtin && id.Name == "new" && isValueType(pass.TypeOf(e.Args[0]))
	}
	return false
}

// backClosure returns the function literal n assigns to an
// autograd.Value's back field, or nil.
func backClosure(pass *Pass, n ast.Node) *ast.FuncLit {
	assign, ok := n.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != len(assign.Rhs) {
		return nil
	}
	for i, lhs := range assign.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "back" {
			continue
		}
		t := pass.TypeOf(sel.X)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if lit, ok := assign.Rhs[i].(*ast.FuncLit); ok && isValueType(t) {
			return lit
		}
	}
	return nil
}

// isValueType matches autograd.Value.
func isValueType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == autogradPackage && named.Obj().Name() == "Value"
}

// isOperandType matches *tensor.Tensor, *autograd.Value and slices of
// them (a variadic parameter's type is a slice).
func isOperandType(t types.Type) bool {
	if s, ok := t.(*types.Slice); ok {
		t = s.Elem()
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case tensorPackage + ".Tensor", autogradPackage + ".Value":
		return true
	}
	return false
}

// heapConstructor returns the name of the tensor heap constructor the
// call invokes, or "".
func heapConstructor(pass *Pass, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	obj := pass.ObjectOf(id)
	for _, name := range heapConstructors {
		if isPkgFunc(obj, tensorPackage, name) {
			return name
		}
	}
	return ""
}

// freshSlice reports whether the call's first argument is storage
// created on the spot: a make call or a slice literal.
func freshSlice(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	switch arg := call.Args[0].(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		id, ok := arg.Fun.(*ast.Ident)
		return ok && id.Name == "make"
	}
	return false
}
