package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Kernelgate keeps tensor math behind the tensor.Kernels dispatch.
// The cross-kernel bitwise-equality contract (naive vs blocked, and
// every kernel to come) only covers math that routes through the
// dispatch; a hand-rolled GEMM or whole-tensor element-wise loop
// outside internal/tensor silently re-introduces a second,
// unverified accumulation order.
//
// Two shapes are flagged:
//
//   - GEMM-shaped: a multiply-accumulate nested three or more loops
//     deep whose two factors index tensor storage with *different*
//     loop-variable sets (the contraction signature of matmul/conv).
//     Same-set products — elementwise reductions like Σ gᵢ·x̂ᵢ, which
//     no Kernels op expresses — are deliberately not flagged.
//   - element-wise: `out.Data[i] = a.Data[i] ⊕ b.Data[i]` over a
//     single loop index, which reimplements the tensor arithmetic
//     helpers.
//
// The fix is tensor.MatMul / MatMulT / TMatMul / Conv2D /
// Conv2DBackward (or the element-wise helpers), which dispatch through
// the run's kernel and inherit its determinism guarantees.
var Kernelgate = &Analyzer{
	Name:  "kernelgate",
	Doc:   "GEMM-shaped and element-wise tensor loops outside internal/tensor must route through tensor.Kernels",
	Scope: outsideTensor,
	Run:   runKernelgate,
}

func runKernelgate(pass *Pass) error {
	for _, f := range pass.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			loops, vars := loopContext(pass, stack)
			if loops == 0 {
				return true
			}
			if loops >= 3 && checkGEMM(pass, asg, vars) {
				return true
			}
			checkElementwise(pass, asg, vars)
			return true
		})
	}
	return nil
}

// loopContext counts the for/range ancestors of the node and collects
// their loop variables.
func loopContext(pass *Pass, stack []ast.Node) (int, map[types.Object]bool) {
	vars := map[types.Object]bool{}
	loops := 0
	addIdent := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				vars[obj] = true
			}
		}
	}
	for _, a := range stack {
		switch loop := a.(type) {
		case *ast.ForStmt:
			loops++
			if init, ok := loop.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					addIdent(lhs)
				}
			}
		case *ast.RangeStmt:
			loops++
			if loop.Key != nil {
				addIdent(loop.Key)
			}
			if loop.Value != nil {
				addIdent(loop.Value)
			}
		}
	}
	return loops, vars
}

// checkGEMM flags a multiply-accumulate whose factors index tensor
// storage with different loop-variable sets; reports whether it fired.
func checkGEMM(pass *Pass, asg *ast.AssignStmt, loopVars map[types.Object]bool) bool {
	if asg.Tok != token.ADD_ASSIGN && asg.Tok != token.ASSIGN && asg.Tok != token.SUB_ASSIGN {
		return false
	}
	fired := false
	for _, rhs := range asg.Rhs {
		ast.Inspect(rhs, func(n ast.Node) bool {
			if fired {
				return false
			}
			mul, ok := n.(*ast.BinaryExpr)
			if !ok || mul.Op != token.MUL {
				return true
			}
			lVars, lTensor := indexProfile(pass, mul.X, loopVars)
			rVars, rTensor := indexProfile(pass, mul.Y, loopVars)
			if len(lVars) == 0 || len(rVars) == 0 {
				return true
			}
			if !lTensor && !rTensor {
				return true // plain-slice math (metrics, clustering) is not tensor math
			}
			if sameVarSet(lVars, rVars) {
				return true // elementwise product/reduction, no Kernels op exists
			}
			pass.Reportf(asg.Pos(),
				"GEMM-shaped multiply-accumulate over tensor data outside internal/tensor: route through the tensor.Kernels dispatch (tensor.MatMul/MatMulT/TMatMul/Conv2D/Conv2DBackward) so the cross-kernel bitwise-equality contract covers it")
			fired = true
			return false
		})
		if fired {
			return true
		}
	}
	return false
}

// indexProfile walks one factor of a product and reports which loop
// variables appear inside its slice-index expressions, and whether any
// indexed storage is a tensor's Data.
func indexProfile(pass *Pass, e ast.Expr, loopVars map[types.Object]bool) (map[types.Object]bool, bool) {
	used := map[types.Object]bool{}
	tensorData := false
	ast.Inspect(e, func(n ast.Node) bool {
		idx, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if isTensorData(pass, idx.X) {
			tensorData = true
		}
		ast.Inspect(idx.Index, func(in ast.Node) bool {
			if id, ok := in.(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil && loopVars[obj] {
					used[obj] = true
				}
			}
			return true
		})
		return true
	})
	return used, tensorData
}

// isTensorData reports whether e is the Data field of a
// tensor.Tensor (directly, or a pointer to one).
func isTensorData(pass *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Data" {
		return false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == tensorPackage && obj.Name() == "Tensor"
}

func sameVarSet(a, b map[types.Object]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkElementwise flags `out.Data[i] = a.Data[i] ⊕ b.Data[i]` over a
// single shared loop index: a reimplementation of the tensor
// arithmetic helpers.
func checkElementwise(pass *Pass, asg *ast.AssignStmt, loopVars map[types.Object]bool) {
	if asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return
	}
	dstVar, ok := singleVarTensorIndex(pass, asg.Lhs[0], loopVars)
	if !ok {
		return
	}
	bin, ok := asg.Rhs[0].(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return
	}
	lVar, lOK := singleVarTensorIndex(pass, bin.X, loopVars)
	rVar, rOK := singleVarTensorIndex(pass, bin.Y, loopVars)
	if !lOK || !rOK || lVar != dstVar || rVar != dstVar {
		return
	}
	pass.Reportf(asg.Pos(),
		"element-wise loop over tensor data outside internal/tensor: use the tensor arithmetic helpers (tensor.Add/Sub/Mul/Div or the kernel-gated ops) instead of hand-rolled per-element math")
}

// singleVarTensorIndex matches `x.Data[i]` where x is a tensor and i
// is exactly one loop variable, returning that variable.
func singleVarTensorIndex(pass *Pass, e ast.Expr, loopVars map[types.Object]bool) (types.Object, bool) {
	idx, ok := e.(*ast.IndexExpr)
	if !ok || !isTensorData(pass, idx.X) {
		return nil, false
	}
	id, ok := idx.Index.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := pass.ObjectOf(id)
	if obj == nil || !loopVars[obj] {
		return nil, false
	}
	return obj, true
}
