package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrDrop flags module-internal error results that never reach a check —
// the PR 9 class, where a tql.Exec error was discarded and a malformed
// query ran as an empty result. Three shapes:
//
//  1. A call whose error result is dropped on the floor (expression
//     statement) or assigned to the blank identifier.
//  2. An error local that is assigned and never read anywhere in the
//     function (reads inside closures and defers count; `_ = err` does not —
//     that is the laundering shape the compiler's unused check forces, not
//     a check).
//  3. An error local overwritten by a later assignment in the same block
//     with no intervening read.
//
// Only calls resolving to module functions with an error result are
// considered, whether or not the callee can actually fail: an error result
// that is always nil is deleted, not ignored. Named results are exempt from
// shape 2/3 (their reads can be implicit in a naked return or a deferred
// mutation).
//
// Runtime counterpart: failures surface as silently-empty tables or
// half-applied configuration; there is no audit that can catch a swallowed
// error at run time, which is why this rule exists.
type ErrDrop struct{}

func (ErrDrop) Name() string { return "errdrop" }
func (ErrDrop) Doc() string {
	return "module-internal error results must be checked, not discarded or overwritten"
}

func (ed ErrDrop) Run(p *Pass) {
	for _, n := range p.Graph.Nodes {
		if n.Body() == nil {
			continue
		}
		ed.checkDiscards(p, n)
		ed.checkLocals(p, n)
	}
}

// errorCallee resolves a call to its module callee when that callee has an
// error result (nil otherwise).
func errorCallee(p *Pass, n *FuncNode, call *ast.CallExpr) *FuncNode {
	callee := staticCallee(p.Graph, n.Pkg, call)
	if callee == nil || len(errorResultSlots(callee)) == 0 {
		return nil
	}
	return callee
}

// errorResultSlots returns the indices of error-typed results of a node's
// signature (nil when it has none).
func errorResultSlots(n *FuncNode) []int {
	sig := nodeSignature(n)
	if sig == nil || sig.Results() == nil {
		return nil
	}
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

func nodeSignature(n *FuncNode) *types.Signature {
	if n.Obj != nil {
		sig, _ := n.Obj.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		if tv, ok := n.Pkg.Info.Types[n.Lit]; ok {
			sig, _ := tv.Type.(*types.Signature)
			return sig
		}
	}
	return nil
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// checkDiscards flags shape 1: floor drops and blank assignments.
func (ed ErrDrop) checkDiscards(p *Pass, n *FuncNode) {
	walkOwn(n.Body(), func(node ast.Node) {
		switch stmt := node.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return
			}
			if callee := errorCallee(p, n, call); callee != nil {
				p.Reportf(call.Pos(), "errdrop",
					"check the error (or waive with the reason it is ignorable)", nil,
					"error result of %s discarded", callee.Name)
			}
		case *ast.AssignStmt:
			ed.checkBlankAssign(p, n, stmt)
		}
	})
}

// checkBlankAssign flags an error slot landing in the blank identifier.
func (ed ErrDrop) checkBlankAssign(p *Pass, n *FuncNode, stmt *ast.AssignStmt) {
	blankAt := func(i int) bool {
		id, ok := ast.Unparen(stmt.Lhs[i]).(*ast.Ident)
		return ok && id.Name == "_"
	}
	if len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 {
		// Multi-assign from one call: slot i of the callee's results.
		call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		callee := errorCallee(p, n, call)
		if callee == nil {
			return
		}
		for _, i := range errorResultSlots(callee) {
			if i < len(stmt.Lhs) && blankAt(i) {
				p.Reportf(stmt.Lhs[i].Pos(), "errdrop",
					"bind and check the error", nil,
					"error result of %s assigned to the blank identifier", callee.Name)
			}
		}
		return
	}
	if len(stmt.Rhs) != len(stmt.Lhs) {
		return
	}
	for i := range stmt.Lhs {
		if !blankAt(i) {
			continue
		}
		call, ok := ast.Unparen(stmt.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		if callee := errorCallee(p, n, call); callee != nil && isErrorType(n.Pkg.Info.TypeOf(call)) {
			p.Reportf(stmt.Lhs[i].Pos(), "errdrop",
				"bind and check the error", nil,
				"error result of %s assigned to the blank identifier", callee.Name)
		}
	}
}

// errUse is one appearance of an error local.
type errUse struct {
	pos   token.Pos
	write bool
	// from is the module callee the write's value came from (nil when the
	// write is not a flaggable module-call assignment).
	from *FuncNode
}

// checkLocals flags shapes 2 and 3 over every error-typed local declared in
// the function body.
func (ed ErrDrop) checkLocals(p *Pass, n *FuncNode) {
	body := n.Body()
	// Collect error-typed locals declared in this function's own body.
	locals := map[*types.Var][]errUse{}
	walkOwn(body, func(node ast.Node) {
		id, ok := node.(*ast.Ident)
		if !ok {
			return
		}
		// The blank identifier is checkBlankAssign's finding, not a local.
		if v, ok := n.Pkg.Info.Defs[id].(*types.Var); ok && v.Name() != "_" &&
			isErrorType(v.Type()) && localTo(body, v) {
			locals[v] = nil
		}
	})
	if len(locals) == 0 {
		return
	}
	// One pass over assignments classifies identifiers up front: write
	// targets do not count as reads, and `_ = err` appearances satisfy the
	// compiler's unused check without checking anything, so they do not
	// count as reads either.
	skipRead := map[*ast.Ident]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				skipRead[id] = true
			}
		}
		if len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			lhs, lok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			rhs, rok := ast.Unparen(as.Rhs[i]).(*ast.Ident)
			if lok && rok && lhs.Name == "_" {
				skipRead[rhs] = true
			}
		}
		return true
	})
	// Collect every use, reads included, across nested closures and defers:
	// a read anywhere means the error is checked somewhere.
	ast.Inspect(body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if ok {
			ed.recordWrites(p, n, as, locals)
			return true
		}
		if id, isID := node.(*ast.Ident); isID && !skipRead[id] {
			v := objVar(n.Pkg, id)
			if v == nil {
				return true
			}
			if _, tracked := locals[v]; tracked && n.Pkg.Info.Defs[id] == nil {
				locals[v] = append(locals[v], errUse{pos: id.Pos(), write: false})
			}
		}
		return true
	})
	for v, uses := range locals {
		ed.reportLocal(p, n, v, uses)
	}
}

// recordWrites registers assignment uses of tracked error locals, noting
// the module callee when the assigned value is a flaggable call result.
func (ed ErrDrop) recordWrites(p *Pass, n *FuncNode, as *ast.AssignStmt, locals map[*types.Var][]errUse) {
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		v := objVar(n.Pkg, id)
		if v == nil {
			continue
		}
		if _, tracked := locals[v]; !tracked {
			continue
		}
		use := errUse{pos: id.Pos(), write: true}
		var call *ast.CallExpr
		if len(as.Rhs) == 1 {
			call, _ = ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		} else if i < len(as.Rhs) {
			call, _ = ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		}
		if call != nil {
			use.from = errorCallee(p, n, call)
		}
		locals[v] = append(locals[v], use)
	}
}

// reportLocal applies shapes 2 and 3 to one local's use list.
func (ed ErrDrop) reportLocal(p *Pass, n *FuncNode, v *types.Var, uses []errUse) {
	reads := 0
	for _, u := range uses {
		if !u.write {
			reads++
		}
	}
	var flagWrites []errUse
	for _, u := range uses {
		if u.write && u.from != nil {
			flagWrites = append(flagWrites, u)
		}
	}
	if len(flagWrites) == 0 {
		return
	}
	if reads == 0 {
		u := flagWrites[0]
		p.Reportf(u.pos, "errdrop",
			"check the error after the call", nil,
			"error from %s assigned to %q but never checked", u.from.Name, v.Name())
		return
	}
	// Shape 3: a flaggable write followed by another write with no read in
	// between (source-position ordering — writes in different branches of
	// the same statement do not order before each other, so this only fires
	// for genuinely sequential overwrites).
	for _, u := range flagWrites {
		var nextWrite token.Pos = -1
		for _, w := range uses {
			if w.write && w.pos > u.pos && (nextWrite < 0 || w.pos < nextWrite) {
				nextWrite = w.pos
			}
		}
		if nextWrite < 0 {
			continue
		}
		readBetween := false
		for _, r := range uses {
			if !r.write && r.pos > u.pos && r.pos < nextWrite {
				readBetween = true
				break
			}
		}
		if !readBetween && sameBlockSequential(n, v, u.pos, nextWrite) {
			p.Reportf(u.pos, "errdrop",
				"check the error before the next assignment", nil,
				"error from %s overwritten before any check", u.from.Name)
		}
	}
}

// sameBlockSequential reports whether two positions fall in statements of
// the same block statement list — i.e. the second genuinely executes after
// the first, rather than in a sibling branch.
func sameBlockSequential(n *FuncNode, v *types.Var, a, b token.Pos) bool {
	found := false
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		if found {
			return false
		}
		block, ok := node.(*ast.BlockStmt)
		if !ok {
			return true
		}
		ai, bi := -1, -1
		for i, stmt := range block.List {
			if a >= stmt.Pos() && a <= stmt.End() {
				ai = i
			}
			if b >= stmt.Pos() && b <= stmt.End() {
				bi = i
			}
		}
		if ai >= 0 && bi >= 0 && ai != bi {
			found = true
		}
		return true
	})
	return found
}

// objVar resolves an identifier to its variable object via Uses or Defs.
func objVar(pkg *Package, id *ast.Ident) *types.Var {
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// localTo reports whether obj is declared inside body (package-level and
// parameter objects escape the analysis).
func localTo(body *ast.BlockStmt, obj types.Object) bool {
	return obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}
