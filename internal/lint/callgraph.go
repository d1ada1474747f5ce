package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural rules
// traverse (DESIGN.md §8). Nodes are the module's declared functions and
// methods plus every function literal (closures are where the window-phase
// and worker-pool code lives, so they must be first-class). Edges come in
// three kinds, which no rule tells apart: every rule built on the graph is
// about code *executed in a context*, so Reachable follows all of them:
//
//	call      — a direct static call: f(x), recv.Method(x), or an
//	            immediately-invoked literal func(){…}().
//	interface — an interface-method call, resolved to every module type
//	            implementing the interface. The module's interfaces are
//	            sealed in practice (physics.Problem, sim.MsgSink, …), so
//	            enumerating module implementers is the whole dispatch set.
//	reference — a function value referenced without being called: a closure
//	            being created, a named function passed as an argument or
//	            stored in a field. Whoever holds the value may call it, so
//	            rules about code *executed in a context* (window phase,
//	            host goroutines) follow these edges.
//
// Calls through arbitrary function-typed variables produce no edge — the
// reference edge at the value's creation site already over-approximates
// where it can run, which is the conservative direction for every rule
// built on this graph.

// Edge is one outgoing call-graph edge.
type Edge struct {
	To *FuncNode
	// Pos is the call or reference site.
	Pos token.Pos
}

// FuncNode is one function in the call graph: a declared function/method
// (Decl non-nil) or a function literal (Lit non-nil, Parent the enclosing
// node).
type FuncNode struct {
	// Name is the display name used in call-path witnesses:
	// "driver.(*Driver).step" for methods, "mpi.(*World).Spawn$1" for the
	// first literal inside Spawn.
	Name string
	// Pkg is the package holding the function.
	Pkg *Package
	// Obj is the declared function object (nil for literals).
	Obj *types.Func
	// Decl / Lit: exactly one is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Parent is the enclosing function of a literal (nil for declarations).
	Parent *FuncNode
	// Out are the outgoing edges, in source order.
	Out []Edge

	index int // position in Graph.Nodes, for deterministic traversal
}

// Body returns the function body (nil for bodyless declarations).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the function's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Graph is the module call graph.
type Graph struct {
	// Nodes lists every function in deterministic (package, position)
	// order.
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// impls caches sealed-interface dispatch resolution per interface
	// method object.
	impls map[*types.Func][]*FuncNode
}

// NodeOf returns the node of a declared function object (nil when obj is
// not a module function). Generic instantiations resolve to their origin.
func (g *Graph) NodeOf(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	return g.byObj[obj.Origin()]
}

// BuildGraph constructs the call graph over every loaded package.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		byObj: map[*types.Func]*FuncNode{},
		byLit: map[*ast.FuncLit]*FuncNode{},
		impls: map[*types.Func][]*FuncNode{},
	}
	// Pass 1: create nodes for declarations and their nested literals.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := &FuncNode{
					Name: declName(pkg, fd),
					Pkg:  pkg, Obj: obj, Decl: fd,
				}
				g.addNode(node)
				if obj != nil {
					g.byObj[obj] = node
				}
				if fd.Body != nil {
					g.addLiterals(node, fd.Body)
				}
			}
		}
	}
	// Pass 2: edges.
	for _, n := range g.Nodes {
		if n.Lit == nil && n.Body() != nil {
			g.addEdges(n)
		}
	}
	for _, n := range g.Nodes {
		if n.Lit != nil {
			g.addEdges(n)
		}
	}
	return g
}

func (g *Graph) addNode(n *FuncNode) {
	n.index = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
}

// addLiterals creates nodes for every function literal nested in body,
// attributing each to its innermost enclosing function node.
func (g *Graph) addLiterals(parent *FuncNode, body *ast.BlockStmt) {
	ord := 0
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			lit, ok := c.(*ast.FuncLit)
			if !ok {
				return true
			}
			ord++
			node := &FuncNode{
				Name: fmt.Sprintf("%s$%d", parent.Name, ord),
				Pkg:  parent.Pkg, Lit: lit, Parent: parent,
			}
			g.addNode(node)
			g.byLit[lit] = node
			g.addLiterals(node, lit.Body)
			return false // nested literals belong to node, not parent
		})
	}
	walk(body)
}

// addEdges walks n's own body (not nested literals') resolving calls and
// references.
func (g *Graph) addEdges(n *FuncNode) {
	body := n.Body()
	walkOwn(body, func(node ast.Node) {
		if call, ok := node.(*ast.CallExpr); ok {
			g.callEdge(n, call)
		}
	})
	// References: every *types.Func use or literal that is not a call's Fun.
	g.refWalk(n, body)
}

// walkOwn walks body, skipping nested function literals (their statements
// belong to their own node).
func walkOwn(body *ast.BlockStmt, fn func(ast.Node)) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// callEdge resolves one call expression into call/iface edges.
func (g *Graph) callEdge(from *FuncNode, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if to := g.byLit[fun]; to != nil {
			from.Out = append(from.Out, Edge{To: to, Pos: call.Pos()})
		}
	case *ast.Ident:
		if obj, ok := from.Pkg.Info.Uses[fun].(*types.Func); ok {
			if to := g.NodeOf(obj); to != nil {
				from.Out = append(from.Out, Edge{To: to, Pos: call.Pos()})
			}
		}
	case *ast.SelectorExpr:
		sel, isMethod := from.Pkg.Info.Selections[fun]
		if !isMethod {
			// Package-qualified function: pkg.Fun.
			if obj, ok := from.Pkg.Info.Uses[fun.Sel].(*types.Func); ok {
				if to := g.NodeOf(obj); to != nil {
					from.Out = append(from.Out, Edge{To: to, Pos: call.Pos()})
				}
			}
			return
		}
		obj, ok := sel.Obj().(*types.Func)
		if !ok {
			return
		}
		if types.IsInterface(sel.Recv()) {
			for _, impl := range g.implementers(obj, sel.Recv()) {
				from.Out = append(from.Out, Edge{To: impl, Pos: call.Pos()})
			}
			return
		}
		if to := g.NodeOf(obj); to != nil {
			from.Out = append(from.Out, Edge{To: to, Pos: call.Pos()})
		}
	}
}

// implementers resolves an interface method to the concrete module methods
// that can stand behind it: for every named module type whose method set
// (value or pointer) satisfies the interface, the correspondingly-named
// method.
func (g *Graph) implementers(m *types.Func, recv types.Type) []*FuncNode {
	if cached, ok := g.impls[m]; ok {
		return cached
	}
	iface, _ := recv.Underlying().(*types.Interface)
	var out []*FuncNode
	if iface != nil {
		for _, node := range g.Nodes {
			if node.Obj == nil || node.Obj.Name() != m.Name() {
				continue
			}
			sig := node.Obj.Type().(*types.Signature)
			rv := sig.Recv()
			if rv == nil {
				continue
			}
			rt := rv.Type()
			if types.Implements(rt, iface) {
				out = append(out, node)
				continue
			}
			// A value-receiver set may only satisfy the interface through
			// the pointer type.
			if _, isPtr := rt.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(rt), iface) {
				out = append(out, node)
			}
		}
	}
	g.impls[m] = out
	return out
}

// refWalk adds reference edges for every function value referenced (not
// called) in from's own body: identifiers and method/package selectors
// resolving to module functions outside callee position, and function
// literals outside callee position.
func (g *Graph) refWalk(from *FuncNode, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	// Callee positions: the call's Fun, and — for selector callees — the
	// Sel ident too, so x.M() does not also read as a reference to M.
	callee := map[ast.Node]bool{}
	walkOwn(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			fun := ast.Unparen(call.Fun)
			callee[fun] = true
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				callee[ast.Node(sel.Sel)] = true
			}
		}
	})
	report := func(pos token.Pos, to *FuncNode) {
		from.Out = append(from.Out, Edge{To: to, Pos: pos})
	}
	walkOwn(body, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || callee[ast.Node(id)] {
			return
		}
		if obj, ok := from.Pkg.Info.Uses[id].(*types.Func); ok {
			if to := g.NodeOf(obj); to != nil {
				report(id.Pos(), to)
			}
		}
	})
	// Literals referenced without being immediately called. walkOwn skips
	// literal subtrees, so inspect directly and cut at each literal.
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if !callee[ast.Node(lit)] {
				if to := g.byLit[lit]; to != nil {
					report(lit.Pos(), to)
				}
			}
			return false // nested literals are the inner node's references
		})
	}
}

// declName builds the display name of a declaration: "pkg.Fun" or
// "pkg.(*Recv).Method".
func declName(pkg *Package, fd *ast.FuncDecl) string {
	base := pkg.Types.Name()
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return base + "." + fd.Name.Name
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	if strings.HasPrefix(recv, "*") {
		return base + ".(" + recv + ")." + fd.Name.Name
	}
	return base + "." + recv + "." + fd.Name.Name
}

// Reach is one BFS over the graph: the reached set plus parent pointers for
// call-path witnesses.
type Reach struct {
	g    *Graph
	from map[*FuncNode]Edge // reached node -> edge that reached it (zero Edge for roots)
	in   map[*FuncNode]bool
}

// Reachable runs a BFS from roots along every edge, whatever its kind,
// refusing to expand nodes for which stop returns true (the node itself is
// still marked reached). stop may be nil.
func (g *Graph) Reachable(roots []*FuncNode, stop func(*FuncNode) bool) *Reach {
	r := &Reach{g: g, from: map[*FuncNode]Edge{}, in: map[*FuncNode]bool{}}
	// Deterministic worklist order: sort roots by node index.
	queue := append([]*FuncNode(nil), roots...)
	sort.Slice(queue, func(i, j int) bool { return queue[i].index < queue[j].index })
	for _, n := range queue {
		r.in[n] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if stop != nil && stop(n) {
			continue
		}
		for _, e := range n.Out {
			if r.in[e.To] {
				continue
			}
			r.in[e.To] = true
			r.from[e.To] = Edge{To: n, Pos: e.Pos} // To doubles as "via"
			queue = append(queue, e.To)
		}
	}
	return r
}

// Has reports whether n was reached.
func (r *Reach) Has(n *FuncNode) bool { return r.in[n] }

// Path returns the call-path witness from a root to n: display names, root
// first, n last. For a root it is just {n.Name}.
func (r *Reach) Path(n *FuncNode) []string {
	var rev []string
	for cur := n; cur != nil; {
		rev = append(rev, cur.Name)
		e, ok := r.from[cur]
		if !ok {
			break
		}
		cur = e.To
	}
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}
