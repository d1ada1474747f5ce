package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// sinkMethods are call names whose invocation inside a map-range body means
// iteration order reaches an ordered sink: telemetry table/recorder appends,
// writer and printer families, and encoders. One row per iteration in a
// map-dependent order is exactly the bug that makes colfiles differ between
// two runs of the same binary.
var sinkMethods = map[string]bool{
	"Append": true, "Emit": true, "EmitRaw": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Encode": true,
}

// sortPackages are the packages whose calls count as establishing a
// deterministic order over a collected slice.
var sortPackages = map[string]bool{"sort": true, "slices": true}

// MapOrder flags `range` over a map whose body feeds an ordered sink.
// Go's map iteration order is deliberately randomized, so each such loop
// emits rows in a different order on every run — the canonical
// reproducibility bug in output paths.
//
// Two shapes are accepted without a waiver:
//   - bodies that only write back into maps (order-independent), and
//   - the collect-then-sort idiom: the body only appends to local slices,
//     and every such slice later flows into a sort/slices call in the same
//     function before anything else consumes it.
//
// Order-insensitive reductions (sums, maxima, percentile inputs) over
// appended slices need a waiver naming why order cannot matter.
//
// Runtime counterpart: the bit-identical table assertions of the j1-vs-jN
// and differential campaigns, which catch the divergence after the fact.
type MapOrder struct{}

func (MapOrder) Name() string { return "maporder" }
func (MapOrder) Doc() string {
	return "flag map iteration feeding ordered sinks (tables, writers, appends) without sorting"
}

func (MapOrder) Run(p *Pass) {
	for _, pkg := range p.Set.Selected {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkMapRanges(p, pkg, fn.Body)
			}
		}
	}
}

func checkMapRanges(p *Pass, pkg *Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}

		var appended []types.Object // local slices the body appends to
		sinkName := ""
		var sinkPos ast.Node
		walkStack(rng.Body, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || sinkName != "" {
				return
			}
			if isAppend(pkg, call) {
				if tgt := appendTarget(pkg, call, stack); tgt != nil {
					appended = append(appended, tgt)
					return
				}
				sinkName, sinkPos = "append", call
				return
			}
			if name := calleeName(call); sinkMethods[name] {
				sinkName, sinkPos = name, call
			}
		})

		switch {
		case sinkName != "":
			p.Reportf(sinkPos.Pos(), "maporder",
				"collect the keys, sort them, and iterate the sorted slice",
				nil, "map iteration reaches ordered sink %s: row order depends on Go's randomized map order", sinkName)
		case len(appended) > 0:
			for _, obj := range appended {
				if !sortedAfter(pkg, body, rng, obj) {
					p.Reportf(rng.Pos(), "maporder",
						"sort the collected slice before it is consumed, or waive with the reason order cannot matter",
						nil, "map iteration appends to %q, which is never sorted in this function", obj.Name())
				}
			}
		}
		return true
	})
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// sortedAfter reports whether obj appears as an argument (possibly nested)
// of a sort/slices call, or a call whose name contains "Sort", positioned
// after the range statement in the same function body.
func sortedAfter(pkg *Package, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(pkg, call) {
			return true
		}
		for _, a := range call.Args {
			used := false
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
					used = true
				}
				return !used
			})
			if used {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// isSortCall recognizes calls that establish a deterministic order: the
// sort and slices packages, plus local helpers following the sortXxx/SortXxx
// naming convention (sortFindings, SortBy).
func isSortCall(pkg *Package, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
				return sortPackages[pn.Imported().Path()]
			}
		}
		return sortHelperName(fun.Sel.Name)
	case *ast.Ident:
		return sortHelperName(fun.Name)
	}
	return false
}

func sortHelperName(name string) bool {
	return strings.HasPrefix(name, "sort") || strings.HasPrefix(name, "Sort")
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

func isAppend(pkg *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTarget resolves the object that an append call's result is assigned
// to: a plain ident (local or package-level) or a field selector
// (m.ordered = append(m.ordered, …) resolves to the field). nil when the
// result lands anywhere else.
func appendTarget(pkg *Package, appendCall *ast.CallExpr, stack []ast.Node) types.Object {
	for i := len(stack) - 1; i >= 0; i-- {
		if as, ok := stack[i].(*ast.AssignStmt); ok {
			idx := rhsIndex(as.Rhs, appendCall)
			if idx < 0 || len(as.Lhs) != len(as.Rhs) {
				return nil
			}
			switch lhs := ast.Unparen(as.Lhs[idx]).(type) {
			case *ast.Ident:
				return pkg.Info.ObjectOf(lhs)
			case *ast.SelectorExpr:
				return pkg.Info.Uses[lhs.Sel]
			}
			return nil
		}
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
