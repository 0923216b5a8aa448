package analyzers

import (
	"go/ast"
	"go/types"
)

// Ctxloop locks in the Plan Runner's cancellation contract: a
// cancelled run stops at the next epoch boundary instead of training
// out its budget. Any loop in the execution engine that invokes
// epoch- or session-grained training work — TrainEpoch, a session
// entry point, a replay — must consult a context.Context inside the
// loop (ctx.Err() or a select on ctx.Done()), every iteration.
//
// Intra-step work (grain compute, all-reduce, phase apply inside
// dist.Engine) is deliberately below the cancellation grain — an
// optimizer step is atomic so replicas never diverge — which is why
// the trigger set is the epoch-level methods, not Step/reduce.
var Ctxloop = &Analyzer{
	Name:  "ctxloop",
	Doc:   "epoch/session loops in the execution engine must check ctx every iteration (cancellation contract)",
	Scope: inEngine,
	Run:   runCtxloop,
}

// epochMethods are the epoch/session-grained calls that make a loop a
// training loop.
var epochMethods = map[string]bool{
	"TrainEpoch":       true,
	"runSession":       true,
	"RunReplaySession": true,
}

func runCtxloop(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			call := trainingCall(pass, body)
			if call == "" {
				return true
			}
			if checksContext(pass, body) {
				return true
			}
			pass.Reportf(n.Pos(),
				"loop invokes %s without checking a context: a cancelled run would train out its epoch budget; check ctx.Err() (or select on ctx.Done()) each iteration", call)
			return true
		})
	}
	return nil
}

// trainingCall returns the name of the first epoch-grained method the
// loop body calls, or "".
func trainingCall(pass *Pass, body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			id = fun.Sel
		case *ast.Ident:
			id = fun
		default:
			return true
		}
		if !epochMethods[id.Name] {
			return true
		}
		if _, ok := pass.ObjectOf(id).(*types.Func); !ok {
			return true
		}
		found = id.Name
		return false
	})
	return found
}

// checksContext reports whether the body calls Err or Done on a
// context.Context value anywhere (including a nested select).
func checksContext(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
			return true
		}
		if t := pass.TypeOf(sel.X); t != nil && isContext(t) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
