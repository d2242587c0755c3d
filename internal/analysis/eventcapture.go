package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// EventcaptureAnalyzer polices closures handed to the kernel scheduler
// (Kernel.At and After). Two rules, both distilled
// from the stale-event bugs fixed in internal/vpn/client.go:
//
//  1. A scheduled closure must not capture a loop variable. The event may
//     fire long after the loop has moved on; the contract requires the
//     closure to be pinned to its iteration with an explicit local copy, so
//     the dependence is visible at the schedule site.
//
//  2. In a function that bumps a generation counter (some `xGen++`), every
//     scheduled closure that mutates captured state must carry the
//     generation-guard idiom: snapshot `gen := c.xGen` outside, first thing
//     inside compare `gen != c.xGen` and bail. Without the guard, an event
//     scheduled by a dead generation (a replaced carrier, a superseded
//     handshake) fires into state it no longer owns.
var EventcaptureAnalyzer = &analysis.Analyzer{
	Name:       "eventcapture",
	Doc:        "flag kernel-event closures that capture loop variables or skip the generation-guard idiom",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: SuppressionsType,
	Run:        runEventcapture,
}

func runEventcapture(pass *analysis.Pass) (any, error) {
	rep := NewReporter(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		if !isKernelSchedule(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			fl, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			checkLoopCapture(pass, rep, fl, stack)
			checkGenerationGuard(pass, rep, fl, stack)
		}
		return true
	})
	return rep.Finish(), nil
}

// isKernelSchedule reports whether call invokes one of the scheduling entry
// points (At, After) on a value of a named type called Kernel.
func isKernelSchedule(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if fn.Name() != "At" && fn.Name() != "After" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return recvIsKernel(sig)
}

// checkLoopCapture reports uses of enclosing-loop iteration variables inside
// the scheduled closure.
func checkLoopCapture(pass *analysis.Pass, rep *Reporter, fl *ast.FuncLit, stack []ast.Node) {
	loopVars := map[types.Object]bool{}
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						loopVars[obj] = true
					}
				}
			}
		case *ast.ForStmt:
			if init, ok := s.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
							loopVars[obj] = true
						}
					}
				}
			}
		}
	}
	if len(loopVars) == 0 {
		return
	}
	reported := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj != nil && loopVars[obj] && !reported[obj] {
			reported[obj] = true
			rep.Reportf(id, "kernel-event closure captures loop variable %q; the event can outlive the iteration — copy it into a local (v := %s) or bind it through a parameter", id.Name, id.Name)
		}
		return true
	})
}

// checkGenerationGuard applies rule 2: inside a generation-managed function,
// a scheduled closure that mutates captured state must compare a generation
// counter before touching anything.
func checkGenerationGuard(pass *analysis.Pass, rep *Reporter, fl *ast.FuncLit, stack []ast.Node) {
	fn := enclosingFunc(stack, fl)
	if fn == nil || !bumpsGeneration(fn) {
		return
	}
	if !mutatesCapturedState(pass, fl) {
		return
	}
	if hasGenerationGuard(fl) {
		return
	}
	rep.Reportf(fl, "closure scheduled by a generation-managed function mutates captured state without a generation guard; snapshot the counter (gen := x.fooGen) and bail when it moved (if gen != x.fooGen { return }) as in vpn.Client")
}

// enclosingFunc returns the body of the innermost function declaration or
// literal on the stack that encloses (and is not) fl.
func enclosingFunc(stack []ast.Node, fl *ast.FuncLit) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			if f != fl {
				return f.Body
			}
		case *ast.FuncDecl:
			return f.Body
		}
	}
	return nil
}

// isGenName reports whether an identifier looks like a generation counter.
func isGenName(name string) bool {
	return strings.HasSuffix(name, "Gen") || strings.HasSuffix(name, "gen") || name == "generation"
}

// leafName extracts the final identifier of an expression: c.carrierGen →
// "carrierGen", gen → "gen".
func leafName(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}

// bumpsGeneration reports whether body contains an `x…Gen++` statement.
func bumpsGeneration(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if inc, ok := n.(*ast.IncDecStmt); ok && inc.Tok == token.INC && isGenName(leafName(inc.X)) {
			found = true
		}
		return !found
	})
	return found
}

// mutatesCapturedState reports whether the closure assigns through a
// variable declared outside it (c.state = …, c.healing = true, x++ …).
func mutatesCapturedState(pass *analysis.Pass, fl *ast.FuncLit) bool {
	captured := func(e ast.Expr) bool {
		obj := rootObject(pass, e)
		if obj == nil {
			return false
		}
		return obj.Pos() < fl.Pos() || obj.Pos() > fl.End()
	}
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if captured(lhs) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			// A generation bump inside the closure is itself mutation.
			if captured(n.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasGenerationGuard reports whether the closure contains an if statement
// comparing generation-looking values with == or !=.
func hasGenerationGuard(fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return !found
		}
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if bin, ok := c.(*ast.BinaryExpr); ok && (bin.Op == token.EQL || bin.Op == token.NEQ) {
				if isGenName(leafName(bin.X)) || isGenName(leafName(bin.Y)) {
					found = true
				}
			}
			return !found
		})
		return !found
	})
	return found
}
