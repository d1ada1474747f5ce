package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mustConsume is the machinery behind the reqleak rule: every call matched
// by isProducer yields a value that must be consumed — passed to another
// call, returned, stored into a field/map/global, or (via append chains)
// accumulated into a slice that is itself consumed. A produced value that is
// discarded, assigned to the blank identifier, or parked in a local that is
// never touched again is reported.
//
// The analysis is deliberately syntactic and conservative: any genuine use
// of the value counts as consumption, so it cannot prove that a Wait happens
// on *all* paths (that is what the runtime freed-marker panics are for); it
// catches the leak shapes that survive review — results dropped on the
// floor and request slices built up and forgotten.
//
// consumes is the interprocedural consumption test: passing a tracked value
// as argument argIdx of a call only counts as consumption if
// consumes(pass, call, argIdx) says so (the reqleak summaries answer "does
// that helper actually handle its request parameter?").
func mustConsume(pass *Pass, rule, fix string, isProducer func(*Pass, *ast.CallExpr) bool, what string, consumes func(*Pass, *ast.CallExpr, int) bool) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkConsume(pass, fn.Body, rule, fix, isProducer, what, consumes)
		}
	}
}

func checkConsume(pass *Pass, body *ast.BlockStmt, rule, fix string, isProducer func(*Pass, *ast.CallExpr) bool, what string, consumes func(*Pass, *ast.CallExpr, int) bool) {
	// Pending objects: locals holding a produced (or producer-accumulating)
	// value, keyed by object, valued by the position to report.
	pending := map[types.Object]token.Pos{}

	walkStack(body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isProducer(pass, call) {
			return
		}
		parent := parentNode(stack)
		switch p := parent.(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), rule, fix, "%s result discarded", what)
		case *ast.AssignStmt:
			idx := rhsIndex(p.Rhs, call)
			if idx < 0 || len(p.Lhs) != len(p.Rhs) {
				return // multi-value or unusual shape: treat as consumed
			}
			trackTarget(pass, body, p.Lhs[idx], call.Pos(), pending, rule, fix, what)
		case *ast.ValueSpec:
			idx := rhsIndex(p.Values, call)
			if idx < 0 || len(p.Names) != len(p.Values) {
				return
			}
			if obj := pass.ObjectOf(p.Names[idx]); obj != nil && localTo(body, obj) {
				pending[obj] = call.Pos()
			}
		case *ast.CallExpr:
			// Argument to another call. For append, the produced value lands
			// in the target slice: track the slice instead.
			if isAppend(pass, p) {
				if tgt := appendTarget(pass, p, stack); tgt != nil && localTo(body, tgt) {
					if _, seen := pending[tgt]; !seen {
						pending[tgt] = call.Pos()
					}
				}
				return
			}
			// Any other call consumes the value directly — unless the
			// interprocedural test says the callee never handles it.
			if idx := rhsIndex(p.Args, call); idx >= 0 && !consumes(pass, p, idx) {
				pass.Reportf(call.Pos(), rule, fix,
					"%s passed to a helper that never waits on or stores it", what)
			}
		default:
			// Return, composite literal, channel send, index store, …:
			// the value escapes; nothing to track.
		}
	})

	// A pending object is consumed by any use that is not (a) the lhs of an
	// assignment whose rhs is an append back into the same object, or (b)
	// the self-argument of such an append. An append of the object's value
	// into another local slice transfers the obligation to that slice.
	for changed := true; changed; {
		changed = false
		walkStack(body, func(n ast.Node, stack []ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok {
				return
			}
			obj := pass.Pkg.Info.Uses[id]
			if obj == nil {
				return
			}
			if _, tracked := pending[obj]; !tracked {
				return
			}
			switch {
			case isAssignLhs(id, stack):
				// Re-assignment, not a use.
			case isSelfAppendArg(pass, id, obj, stack):
				// reqs = append(reqs, …): the slice feeding itself.
			default:
				if tgt, ok := appendedInto(pass, id, stack); ok {
					// Value appended into another slice: the obligation
					// moves to that slice.
					if tgt != nil && localTo(body, tgt) {
						if _, seen := pending[tgt]; !seen {
							pending[tgt] = pending[obj]
							changed = true
						}
					}
					delete(pending, obj)
					changed = true
					return
				}
				// An argument position whose callee never handles the value
				// is not a use: the obligation stays pending.
				if call, isCall := parentNode(stack).(*ast.CallExpr); isCall && !isAppend(pass, call) {
					if idx := argIndex(call, id); idx >= 0 && !consumes(pass, call, idx) {
						return
					}
				}
				delete(pending, obj) // genuinely consumed
				changed = true
			}
		})
	}

	for obj, pos := range pending {
		pass.Reportf(pos, rule, fix, "%s stored in %q but never consumed", what, obj.Name())
	}
}

// walkStack walks the AST calling fn with each node and the stack of its
// ancestors (outermost first, excluding n itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// parentNode returns the nearest non-paren ancestor.
func parentNode(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

func rhsIndex(rhs []ast.Expr, call *ast.CallExpr) int {
	for i, e := range rhs {
		if ast.Unparen(e) == call {
			return i
		}
	}
	return -1
}

// trackTarget records the assignment target of a produced value: a local
// ident becomes pending, an index store into a local slice tracks the slice,
// blank is an immediate report, anything else escapes.
func trackTarget(pass *Pass, body *ast.BlockStmt, lhs ast.Expr, at token.Pos, pending map[types.Object]token.Pos, rule, fix, what string) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			pass.Reportf(at, rule, fix, "%s assigned to the blank identifier", what)
			return
		}
		if obj := pass.ObjectOf(l); obj != nil && localTo(body, obj) {
			pending[obj] = at
		}
	case *ast.IndexExpr:
		if base, ok := ast.Unparen(l.X).(*ast.Ident); ok {
			if obj := pass.ObjectOf(base); obj != nil && localTo(body, obj) {
				if _, seen := pending[obj]; !seen {
					pending[obj] = at
				}
			}
		}
	}
}

// localTo reports whether obj is declared inside body (package-level and
// parameter objects escape the analysis).
func localTo(body *ast.BlockStmt, obj types.Object) bool {
	return obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}

func isAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTarget resolves the object that an append call's result is assigned
// to: a plain ident (local or package-level) or a field selector
// (m.ordered = append(m.ordered, …) resolves to the field). nil when the
// result lands anywhere else.
func appendTarget(pass *Pass, appendCall *ast.CallExpr, stack []ast.Node) types.Object {
	for i := len(stack) - 1; i >= 0; i-- {
		if as, ok := stack[i].(*ast.AssignStmt); ok {
			idx := rhsIndex(as.Rhs, appendCall)
			if idx < 0 || len(as.Lhs) != len(as.Rhs) {
				return nil
			}
			switch lhs := ast.Unparen(as.Lhs[idx]).(type) {
			case *ast.Ident:
				return pass.ObjectOf(lhs)
			case *ast.SelectorExpr:
				return pass.Pkg.Info.Uses[lhs.Sel]
			}
			return nil
		}
	}
	return nil
}

// isAssignLhs reports whether id appears on the left-hand side of an
// assignment — either directly (s = …) or as the base of an index store
// (s[i] = …), which stores into the tracked container rather than consuming
// it.
func isAssignLhs(id *ast.Ident, stack []ast.Node) bool {
	var target ast.Expr = id
	parent := parentNode(stack)
	if ix, ok := parent.(*ast.IndexExpr); ok && ast.Unparen(ix.X) == id {
		target = ix
		parent = parentNode(stack[:len(stack)-1])
	}
	as, ok := parent.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, l := range as.Lhs {
		if ast.Unparen(l) == target {
			return true
		}
	}
	return false
}

// isSelfAppendArg reports whether id is the first argument of an append that
// assigns back into the same object (s = append(s, …)).
func isSelfAppendArg(pass *Pass, id *ast.Ident, obj types.Object, stack []ast.Node) bool {
	call, ok := parentNode(stack).(*ast.CallExpr)
	if !ok || !isAppend(pass, call) || len(call.Args) == 0 || ast.Unparen(call.Args[0]) != id {
		return false
	}
	return appendTarget(pass, call, stack) == obj
}

// appendedInto reports whether id is a non-first argument of an append call,
// returning the append's assignment target when so.
func appendedInto(pass *Pass, id *ast.Ident, stack []ast.Node) (types.Object, bool) {
	call, ok := parentNode(stack).(*ast.CallExpr)
	if !ok || !isAppend(pass, call) {
		return nil, false
	}
	for _, a := range call.Args[1:] {
		if ast.Unparen(a) == id {
			return appendTarget(pass, call, stack), true
		}
	}
	return nil, false
}
