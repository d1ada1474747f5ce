package lint

import (
	"go/ast"
	"go/types"
)

// SharedMut flags mutable state shared across shard-window or harness-worker
// execution contexts without lane discipline — the static form of the PR 7
// shared-RNG bug, where a physics problem's `rng *xrand.RNG` field was
// advanced from every rank's cost query, making results depend on the order
// shards happened to run.
//
// Three shapes are reported, each with a call-path witness from the
// context root:
//
//  1. A package-level variable written by code reachable from a
//     window-phase closure or a harness worker body, unless the write is
//     laned (indexed by a per-context expression).
//  2. A read-modify call — a method that mutates scalar receiver state AND
//     returns a value (an RNG draw, an unlaned sequence counter) — on a
//     receiver that outlives the call (the enclosing method's receiver, a
//     captured variable, a global). Types annotated //amr:shardowned are
//     exempt: their mutation safety is the shard-ownership protocol the
//     runtime audits in paranoid mode.
//  3. A window-phase or worker root closure writing an unlaned captured
//     variable from the spawning scope.
//
// Runtime counterpart: the j1-vs-jN table-identity tests and paranoid-mode
// shard-ownership audits, which only catch the divergence on runs where the
// orders actually differ; this rule names the shared state on every build.
type SharedMut struct{}

func (SharedMut) Name() string { return "sharedmut" }
func (SharedMut) Doc() string {
	return "no unlaned shared mutable state reachable from shard windows or harness workers"
}

func (sm SharedMut) RunModule(mp *ModulePass) {
	g := mp.Graph
	roots := append(WindowRoots(g), WorkerRoots(g)...)
	if len(roots) == 0 {
		return
	}
	reach := g.Reachable(roots, EdgeCall|EdgeIface|EdgeRef, nil)
	rootSet := map[*FuncNode]bool{}
	for _, r := range roots {
		rootSet[r] = true
	}
	for _, n := range g.Nodes {
		if !reach.Has(n) {
			continue
		}
		sm.checkGlobalWrites(mp, n, reach)
		sm.checkReadModify(mp, n, reach)
		if rootSet[n] && n.Lit != nil {
			sm.checkCapturedWrites(mp, n, reach)
		}
	}
}

// notPkgLevel is the lane predicate for context-local indexing: an index
// that mentions any non-global variable (a parameter, a loop variable of
// the spawning scope, a shard id) is taken as lane discipline.
func notPkgLevel(v *types.Var) bool { return !isPkgLevel(v) }

// isPkgLevel reports whether v is a package-level variable.
func isPkgLevel(v *types.Var) bool {
	if v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// checkGlobalWrites flags unlaned writes to package-level variables.
func (sm SharedMut) checkGlobalWrites(mp *ModulePass, n *FuncNode, reach *Reach) {
	report := func(lhs ast.Expr) {
		base, laned, ok := writeTarget(n.Pkg, lhs, notPkgLevel)
		if !ok || laned || !isPkgLevel(base) {
			return
		}
		mp.Reportf(lhs.Pos(), "sharedmut",
			"move the state into the per-shard/per-worker context, or index it by lane",
			reach.Path(n),
			"package-level variable %q written in shard-window/worker context", base.Name())
	}
	walkOwn(n.Body(), func(node ast.Node) {
		switch e := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(e.X)
		}
	})
}

// checkReadModify flags calls to scalar-receiver-mutating, value-returning
// methods on receivers that outlive the call.
func (sm SharedMut) checkReadModify(mp *ModulePass, n *FuncNode, reach *Reach) {
	params := map[*types.Var]bool{}
	for _, p := range paramObjs(n) {
		params[p] = true
	}
	body := n.Body()
	walkOwn(body, func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		callee := staticCallee(mp.Graph, n.Pkg, call)
		if callee == nil || mp.Sums.RecvMutOf(callee) != RecvScalar {
			return
		}
		if sig := nodeSignature(callee); sig == nil || sig.Results().Len() == 0 {
			return // mutation without a result: not the read-modify class
		}
		base, _, ok := writeTarget(n.Pkg, fun.X, nil)
		if !ok {
			return // dynamic receiver chain: creation site is responsible
		}
		if localTo(body, base) || params[base] {
			return // context-local state, or the caller's responsibility
		}
		if id, bare := ast.Unparen(fun.X).(*ast.Ident); bare && objVar(n.Pkg, id) == recvObj(n) {
			// Self-delegation (r.Uint64() inside (*RNG).Intn): the object
			// advancing its own state. Sharing is judged at the outer call
			// sites, where the receiver chain shows whose state it is.
			return
		}
		if sm.shardOwnedChain(mp, callee, base) {
			return
		}
		mp.Reportf(call.Pos(), "sharedmut",
			"give each shard/worker its own instance (xrand.Split per lane), or derive the value statelessly",
			reach.Path(n),
			"order-dependent state advance: %s mutates scalar state of shared %q and returns a value",
			callee.Name, base.Name())
	})
}

// shardOwnedChain reports whether the callee's receiver type or the chain's
// base variable type carries //amr:shardowned.
func (sm SharedMut) shardOwnedChain(mp *ModulePass, callee *FuncNode, base *types.Var) bool {
	if sig := nodeSignature(callee); sig != nil && sig.Recv() != nil {
		if tn := namedTypeName(sig.Recv().Type()); tn != nil && mp.Sums.ShardOwned(tn) {
			return true
		}
	}
	if tn := namedTypeName(base.Type()); tn != nil && mp.Sums.ShardOwned(tn) {
		return true
	}
	return false
}

// namedTypeName unwraps pointers to the declared type name (nil for
// unnamed types).
func namedTypeName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// checkCapturedWrites flags a root closure writing an unlaned variable
// captured from the spawning scope.
func (sm SharedMut) checkCapturedWrites(mp *ModulePass, n *FuncNode, reach *Reach) {
	params := map[*types.Var]bool{}
	for _, p := range paramObjs(n) {
		params[p] = true
	}
	body := n.Body()
	report := func(lhs ast.Expr) {
		base, laned, ok := writeTarget(n.Pkg, lhs, notPkgLevel)
		if !ok || laned || isPkgLevel(base) {
			return // globals are checkGlobalWrites' finding
		}
		if localTo(body, base) || params[base] {
			return
		}
		mp.Reportf(lhs.Pos(), "sharedmut",
			"index the write by this context's lane, or collect results through the context's own state",
			reach.Path(n),
			"window/worker closure writes captured variable %q without lane discipline", base.Name())
	}
	walkOwn(body, func(node ast.Node) {
		switch e := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(e.X)
		}
	})
}
