package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags per-event allocation in functions reachable — by direct
// calls and sealed-interface dispatch only — from a hot-path root: a
// function annotated
//
//	//amr:hotpath
//
// The annotated roots are the code the profile says runs per simulated
// event (the DES dispatch loop, mpi Isend/Irecv/Wait, simnet delivery);
// an allocation there multiplies by the event count, which is exactly the
// GC pressure PR 7's pooling work removed. Traversal is pruned below
// functions annotated //amr:cold (error paths, one-time setup).
//
// Flagged shapes, each with a call-path witness from the root:
//
//   - a closure allocated (a func literal not immediately invoked);
//   - &T{…}, new(T), or make(…) — a fresh composite per call, where the
//     module's pattern is pooling (mpi request freelist, event pool) or
//     reuse of a scratch buffer;
//   - interface boxing: a concrete non-pointer value passed to an
//     interface-typed parameter, which heap-allocates the box.
//
// Allocations inside the argument of a panic(…) call are exempt: they only
// evaluate on the failure path, so panic(fmt.Sprintf(…)) guards cost
// nothing on the hot path proper. (Assertion helpers whose arguments are
// evaluated eagerly — check.Assertf — are NOT exempt at the call site;
// boxing there happens whether or not the assertion fires.)
//
// Runtime counterpart: the benchmark suite's allocs/op assertions — they
// catch a regression only on the paths a benchmark drives; this rule covers
// every path reachable from the annotations.
type HotAlloc struct{}

func (HotAlloc) Name() string { return "hotalloc" }
func (HotAlloc) Doc() string {
	return "no closure, composite, or boxing allocation reachable from //amr:hotpath roots"
}

func (ha HotAlloc) RunModule(mp *ModulePass) {
	g := mp.Graph
	roots := HotRoots(g)
	if len(roots) == 0 {
		return
	}
	reach := g.Reachable(roots, EdgeCall|EdgeIface, func(n *FuncNode) bool { return n.Cold })
	for _, n := range g.Nodes {
		if !reach.Has(n) || n.Cold {
			continue
		}
		ha.checkNode(mp, n, reach)
	}
}

func (ha HotAlloc) checkNode(mp *ModulePass, n *FuncNode, reach *Reach) {
	body := n.Body()
	// Immediately-invoked literals are calls, not allocations; panic
	// arguments evaluate on the failure path only.
	invoked := map[*ast.FuncLit]bool{}
	var panicRanges [][2]token.Pos
	walkOwn(body, func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			invoked[lit] = true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := n.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				panicRanges = append(panicRanges, [2]token.Pos{call.Pos(), call.End()})
			}
		}
	})
	inPanic := func(pos token.Pos) bool {
		for _, r := range panicRanges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	path := reach.Path(n)
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(node ast.Node) bool {
			if lit, ok := node.(*ast.FuncLit); ok {
				if !invoked[lit] && !inPanic(lit.Pos()) {
					mp.Reportf(lit.Pos(), "hotalloc",
						"hoist the closure out of the hot path, or mark the enclosing function //amr:cold if this path is not hot",
						path, "closure allocated in hot path")
				}
				return false // the literal's own body is its own node
			}
			return true
		})
	}
	walkOwn(body, func(node ast.Node) {
		if inPanic(node.Pos()) {
			return
		}
		switch e := node.(type) {
		case *ast.UnaryExpr:
			if e.Op.String() != "&" {
				return
			}
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				mp.Reportf(e.Pos(), "hotalloc",
					"reuse a pooled or scratch instance instead of allocating per event",
					path, "composite allocated (&T{…}) in hot path")
			}
		case *ast.CallExpr:
			ha.checkCall(mp, n, e, path)
		}
	})
}

func (ha HotAlloc) checkCall(mp *ModulePass, n *FuncNode, call *ast.CallExpr, path []string) {
	// Type conversions are not calls.
	if tv, ok := n.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := n.Pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				mp.Reportf(call.Pos(), "hotalloc",
					"reuse a pooled or scratch instance instead of allocating per event",
					path, "new(T) in hot path")
			case "make":
				mp.Reportf(call.Pos(), "hotalloc",
					"preallocate the container outside the hot path and reuse it",
					path, "make(…) in hot path")
			}
			return
		}
	}
	// Interface boxing at argument positions of resolvable signatures.
	sigT := n.Pkg.Info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // f(args...) forwards the slice as-is: no box
		}
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		if pi >= sig.Params().Len() {
			break
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if !types.IsInterface(pt) {
			continue
		}
		if _, isTypeParam := pt.(*types.TypeParam); isTypeParam {
			continue
		}
		at := n.Pkg.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if tv, ok := n.Pkg.Info.Types[arg]; ok && tv.IsNil() {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointer fits in the interface word, no box
		}
		mp.Reportf(arg.Pos(), "hotalloc",
			"pass a pointer, use a concrete-typed API, or mark this path //amr:cold",
			path, "interface boxing: %s value passed to interface parameter in hot path",
			types.TypeString(at, types.RelativeTo(n.Pkg.Types)))
	}
}
