package bufcheck

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	simvet "repro/internal/analysis"
)

// EventpoolAnalyzer enforces kernel-event pool hygiene (DESIGN.md §9.5):
// sim.Kernel's At/After recycle every event through a freelist and return a
// sim.Timer whose Cancel acts only while that scheduling is still queued.
// A callback that cancels its own Timer is a liveness bug dressed as
// cleanup: by the time the callback runs, the event has fired and Cancel is
// a no-op — unless the callback rescheduled through the same variable
// first, which is the legitimate timer-renewal idiom and is exempted.
var EventpoolAnalyzer = &analysis.Analyzer{
	Name:       "eventpool",
	Doc:        "flag kernel-event callbacks canceling their own fired Timer",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: simvet.SuppressionsType,
	Run:        runEventpool,
}

func runEventpool(pass *analysis.Pass) (any, error) {
	rep := simvet.NewReporter(pass)
	if pass.Pkg.Name() == "sim" {
		// The scheduler implements the Timer; its internals are exempt the
		// same way pkt is for the buffer analyzers.
		return rep.Finish(), nil
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.AssignStmt)(nil)}, func(n ast.Node) {
		checkAssign(pass, rep, n.(*ast.AssignStmt))
	})
	return rep.Finish(), nil
}

// checkAssign flags a Timer bound to a variable whose own callback cancels
// it without first renewing it.
func checkAssign(pass *analysis.Pass, rep *simvet.Reporter, n *ast.AssignStmt) {
	for i, rhs := range n.Rhs {
		call := kernelAtAfter(pass.TypesInfo, rhs)
		if call == nil || i >= len(n.Lhs) || len(call.Args) < 2 {
			continue
		}
		root, path := simplePath(pass.TypesInfo, n.Lhs[i])
		if root == nil {
			continue
		}
		lit, ok := call.Args[1].(*ast.FuncLit)
		if !ok {
			continue
		}
		if cancel := selfCancel(pass.TypesInfo, lit, root, path); cancel != nil {
			rep.Reportf(cancel, "callback cancels its own handle %s: the event has already fired when the callback runs, so Cancel is a no-op — reschedule through the variable first or drop the call", path)
		}
	}
}

// kernelAtAfter returns the call when e is a call to At or After on a value
// of a named type Kernel that returns a named type Timer (both matched by
// name, like the other simvet analyzers, so single-package fixtures work).
func kernelAtAfter(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	if fn.Name() != "At" && fn.Name() != "After" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); !ok || named.Obj().Name() != "Kernel" {
		return nil
	}
	// Only a Timer-returning At/After has a handle its callback can cancel.
	if sig.Results().Len() != 1 {
		return nil
	}
	if named, ok := sig.Results().At(0).Type().(*types.Named); !ok || named.Obj().Name() != "Timer" {
		return nil
	}
	return call
}

// simplePath reduces an lvalue to (root object, dotted path) when it is a
// plain identifier or a selector chain off one (h, c.retry, s.timer.ev).
// Anything with indexing or calls is not comparable and returns nil.
func simplePath(info *types.Info, e ast.Expr) (types.Object, string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			return obj, e.Name
		}
	case *ast.SelectorExpr:
		root, path := simplePath(info, e.X)
		if root != nil {
			return root, path + "." + e.Sel.Name
		}
	}
	return nil, ""
}

// selfCancel returns the offending Cancel call when lit's body cancels the
// handle at (root, path) without any assignment to that path occurring in
// the body (an assignment means the callback renews the timer — the
// legitimate idiom — and the Cancel may target the new handle).
func selfCancel(info *types.Info, lit *ast.FuncLit, root types.Object, path string) *ast.CallExpr {
	var cancel *ast.CallExpr
	renewed := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if r, p := simplePath(info, lhs); r == root && p == path {
					renewed = true
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Cancel" {
				return true
			}
			if r, p := simplePath(info, sel.X); r == root && p == path && cancel == nil {
				cancel = n
			}
		}
		return true
	})
	if renewed {
		return nil
	}
	return cancel
}
