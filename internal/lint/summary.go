package lint

import (
	"go/ast"
	"go/types"
)

// Per-function summaries for the interprocedural rules: conservative facts
// about a function that a rule consults at its call sites.
//
//	errNeverNil — is every error result of the function statically nil on
//	             every return path? Ignoring such a function's error is not
//	             a dropped error (errdrop uses this to stay quiet).
//
// Summaries are computed to a fixpoint over the call graph, so a wrapper
// that forwards another function's error classifies the same as the direct
// form.

// Summaries holds every per-function summary, keyed by graph node.
type Summaries struct {
	g      *Graph
	errNil map[*FuncNode]bool
}

// ErrAlwaysNil reports whether every error result of n is statically nil
// on every return path — ignoring such an error is not a dropped error.
func (s *Summaries) ErrAlwaysNil(n *FuncNode) bool { return s.errNil[n] }

// Summarize computes every summary over the graph.
func Summarize(g *Graph) *Summaries {
	s := &Summaries{g: g, errNil: map[*FuncNode]bool{}}
	for _, n := range g.Nodes {
		s.directErrNil(n)
	}
	s.fixErrNil()
	return s
}

// staticCallee resolves a call in pkg to its static module callee node
// (nil for dynamic, interface, and non-module calls).
func staticCallee(g *Graph, pkg *Package, call *ast.CallExpr) *FuncNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return g.NodeOf(obj)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if obj, ok := sel.Obj().(*types.Func); ok && !types.IsInterface(sel.Recv()) {
				return g.NodeOf(obj)
			}
			return nil
		}
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return g.NodeOf(obj)
		}
	case *ast.FuncLit:
		return g.byLit[fun]
	}
	return nil
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

// directErrNil seeds errNil: true when every return statement's error slots
// are literal nil (or forward a callee handled by the fixpoint), false
// otherwise. Functions without error results stay absent.
func (s *Summaries) directErrNil(n *FuncNode) {
	slots := errorResultSlots(n)
	if len(slots) == 0 || n.Body() == nil {
		return
	}
	// Named results make nil-ness flow-dependent; stay conservative.
	sig := nodeSignature(n)
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i).Name() != "" {
			s.errNil[n] = false
			return
		}
	}
	s.errNil[n] = true // optimistic; fixErrNil falsifies
}

// fixErrNil drives errNil to its greatest fixpoint: a function stays "never
// non-nil" only while every return's error slots are nil literals or
// spread calls to functions that are themselves never non-nil.
func (s *Summaries) fixErrNil() {
	for changed := true; changed; {
		changed = false
		for _, n := range s.g.Nodes {
			if !s.errNil[n] {
				continue
			}
			if !s.returnsAlwaysNil(n) {
				s.errNil[n] = false
				changed = true
			}
		}
	}
}

func (s *Summaries) returnsAlwaysNil(n *FuncNode) bool {
	slots := errorResultSlots(n)
	sig := nodeSignature(n)
	ok := true
	walkOwn(n.Body(), func(node ast.Node) {
		ret, isRet := node.(*ast.ReturnStmt)
		if !isRet || !ok {
			return
		}
		// Spread return `return f()`: every slot's value, error slots
		// included, is the callee's — defer to its summary.
		if len(ret.Results) == 1 && sig.Results().Len() > 1 {
			callee := s.returnedCallee(n, ret.Results[0])
			if callee == nil || !s.errNil[callee] {
				ok = false
			}
			return
		}
		if len(ret.Results) != sig.Results().Len() {
			ok = false // naked return with named results: already excluded
			return
		}
		for _, i := range slots {
			if tv, found := n.Pkg.Info.Types[ret.Results[i]]; found && tv.IsNil() {
				continue
			}
			// `return ..., f()` in a single error slot: the callee's fact.
			if callee := s.returnedCallee(n, ret.Results[i]); callee != nil && s.errNil[callee] {
				continue
			}
			ok = false
			return
		}
	})
	return ok
}

// returnedCallee resolves a returned call expression to its static callee
// node (nil when the result expression is not a resolvable call).
func (s *Summaries) returnedCallee(n *FuncNode, e ast.Expr) *FuncNode {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	return staticCallee(s.g, n.Pkg, call)
}
