package lint

import (
	"go/ast"
	"go/types"
)

// Context-root discovery for the interprocedural rules. A "root" is a
// function the analysis treats as the entry point of an execution context:
//
//	window-phase roots — function values handed to the DES engine's entry
//	    points (Spawn/At/After/InjectAt/OnMerge). Everything they reach runs
//	    inside a simulated window, where shards execute concurrently and
//	    only laned or shard-owned state may be mutated.
//	host-plane roots — goroutine bodies spawned outside the deterministic
//	    core plus HTTP-handler-shaped functions: the wall-clock side of the
//	    two-plane design (DESIGN.md §11).
//
// Roots are matched by shape (method name, field name, signature), not by
// import path, so the fixture module can exercise every rule without
// importing the real sim/mpi/harness packages.

// windowPhaseMethods are the DES entry points whose function-typed
// arguments run inside the simulated window phase.
var windowPhaseMethods = map[string]bool{
	"Spawn": true, "At": true, "After": true, "InjectAt": true, "OnMerge": true,
}

// funcValueNodes resolves an expression used as a function value to its
// graph nodes: a literal, a named function/method value, or nil when the
// expression is dynamic.
func funcValueNodes(g *Graph, pkg *Package, e ast.Expr) []*FuncNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if n := g.byLit[e]; n != nil {
			return []*FuncNode{n}
		}
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[e].(*types.Func); ok {
			if n := g.NodeOf(obj); n != nil {
				return []*FuncNode{n}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok {
			if obj, ok := sel.Obj().(*types.Func); ok {
				if n := g.NodeOf(obj); n != nil {
					return []*FuncNode{n}
				}
			}
			return nil
		}
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			if n := g.NodeOf(obj); n != nil {
				return []*FuncNode{n}
			}
		}
	}
	return nil
}

// WindowRoots returns every function value passed to a window-phase entry
// point (a method call named Spawn/At/After/InjectAt/OnMerge), in
// deterministic node order.
func WindowRoots(g *Graph) []*FuncNode {
	var out []*FuncNode
	seen := map[*FuncNode]bool{}
	for _, n := range g.Nodes {
		walkOwn(n.Body(), func(node ast.Node) {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return
			}
			fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !windowPhaseMethods[fun.Sel.Name] {
				return
			}
			if _, isMethod := n.Pkg.Info.Selections[fun]; !isMethod {
				return
			}
			for _, arg := range call.Args {
				if !isFuncTyped(n.Pkg, arg) {
					continue
				}
				for _, root := range funcValueNodes(g, n.Pkg, arg) {
					if !seen[root] {
						seen[root] = true
						out = append(out, root)
					}
				}
			}
		})
	}
	return out
}

// HostRoots returns the host-plane entry points: goroutine bodies spawned
// in packages outside the deterministic core (goroutines inside the core
// are the DES machinery itself, waived under the determinism rule and
// governed by the shard-ownership protocol), plus HTTP-handler-shaped
// functions anywhere.
func HostRoots(g *Graph, core []string) []*FuncNode {
	coreSet := map[string]bool{}
	for _, p := range core {
		coreSet[p] = true
	}
	var out []*FuncNode
	seen := map[*FuncNode]bool{}
	add := func(root *FuncNode) {
		if root != nil && !seen[root] {
			seen[root] = true
			out = append(out, root)
		}
	}
	for _, n := range g.Nodes {
		if isHandlerShaped(n) {
			add(n)
		}
		if coreSet[n.Pkg.Path] {
			continue
		}
		walkOwn(n.Body(), func(node ast.Node) {
			gs, ok := node.(*ast.GoStmt)
			if !ok {
				return
			}
			for _, root := range funcValueNodes(g, n.Pkg, gs.Call.Fun) {
				add(root)
			}
		})
	}
	return out
}

// isHandlerShaped reports whether a declared function has the
// http.HandlerFunc signature (w http.ResponseWriter, r *http.Request).
func isHandlerShaped(n *FuncNode) bool {
	if n.Obj == nil {
		return false
	}
	sig, ok := n.Obj.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 {
		return false
	}
	return isNetHTTPNamed(sig.Params().At(0).Type(), "ResponseWriter") &&
		isNetHTTPNamed(derefType(sig.Params().At(1).Type()), "Request")
}

func derefType(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

func isNetHTTPNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == name
}

// isFuncTyped reports whether an expression's static type is a function
// type.
func isFuncTyped(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}
