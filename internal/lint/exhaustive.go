package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive enforces closed-sum-type switches: a switch over a module-
// declared enum type (a defined basic type with a block of typed constants —
// evBody kinds, trace span kinds, wait kinds) and a type switch over a
// module-declared sealed interface (one with an unexported method) must
// either cover every variant or carry a default clause that panics. A
// silent default is how a newly added variant slips through every layer
// until a table diverges.
//
// Sentinel terminator constants (names beginning num/max/count, and blank
// constants) do not count as variants.
//
// Runtime counterpart: paranoid-mode audits panic on impossible states after
// the fact; this rule refuses the hole at compile time.
type Exhaustive struct{}

func (Exhaustive) Name() string { return "exhaustive" }
func (Exhaustive) Doc() string {
	return "switches over module enum types and sealed interfaces must cover every variant or panic in default"
}

func (Exhaustive) Run(p *Pass) {
	modulePkgs := map[*types.Package]bool{}
	for _, pkg := range p.Set.All {
		modulePkgs[pkg.Types] = true
	}
	for _, pkg := range p.Set.Selected {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch sw := n.(type) {
				case *ast.SwitchStmt:
					checkEnumSwitch(p, pkg, modulePkgs, sw)
				case *ast.TypeSwitchStmt:
					checkTypeSwitch(p, pkg, modulePkgs, sw)
				}
				return true
			})
		}
	}
}

// variant is one member of a closed set: the key its case expressions
// resolve to, and the name a diagnostic lists it under.
type variant struct{ key, name string }

// sentinelConst reports whether a constant is a terminator/sentinel rather
// than a variant (numKinds-style counters).
func sentinelConst(name string) bool {
	lower := strings.ToLower(name)
	return name == "_" ||
		strings.HasPrefix(lower, "num") ||
		strings.HasPrefix(lower, "max") ||
		strings.HasPrefix(lower, "count")
}

// enumVariants returns the package-level constants of exactly type named,
// excluding sentinels, in value order, when named is a module-declared
// basic-kinded type with at least two such constants. A constant's key is
// its exact value.
func enumVariants(modulePkgs map[*types.Package]bool, named *types.Named) []variant {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	if !modulePkgs[obj.Pkg()] {
		return nil
	}
	if _, basic := named.Underlying().(*types.Basic); !basic {
		return nil
	}
	scope := obj.Pkg().Scope()
	var consts []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || sentinelConst(name) || !types.Identical(c.Type(), named) {
			continue
		}
		consts = append(consts, c)
	}
	if len(consts) < 2 {
		return nil
	}
	sort.Slice(consts, func(i, j int) bool {
		return constant.Compare(consts[i].Val(), token.LSS, consts[j].Val())
	})
	out := make([]variant, len(consts))
	for i, c := range consts {
		out[i] = variant{key: c.Val().ExactString(), name: c.Name()}
	}
	return out
}

func checkEnumSwitch(p *Pass, pkg *Package, modulePkgs map[*types.Package]bool, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	named, ok := pkg.Info.TypeOf(sw.Tag).(*types.Named)
	if !ok {
		return
	}
	variants := enumVariants(modulePkgs, named)
	if variants == nil {
		return
	}
	checkCases(p, sw.Pos(), named.Obj().Name(), sw.Body, variants, func(e ast.Expr) string {
		if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
			return tv.Value.ExactString()
		}
		return ""
	})
}

// checkTypeSwitch enforces coverage for type switches over sealed module
// interfaces: every module-declared named type implementing the interface
// must appear as a case.
func checkTypeSwitch(p *Pass, pkg *Package, modulePkgs map[*types.Package]bool, sw *ast.TypeSwitchStmt) {
	iface, name := switchedInterface(pkg, sw)
	if iface == nil || !sealedModuleInterface(modulePkgs, iface) {
		return
	}
	impls := implementers(modulePkgs, iface)
	if len(impls) < 2 {
		return
	}
	checkCases(p, sw.Pos(), name, sw.Body, impls, func(e ast.Expr) string {
		t := pkg.Info.TypeOf(e)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return typeKey(n)
		}
		return ""
	})
}

// checkCases is the case walk both switch forms share: every variant's key
// must be among the keys caseKey resolves the case expressions to, or the
// default clause must panic.
func checkCases(p *Pass, pos token.Pos, typeName string, body *ast.BlockStmt, variants []variant, caseKey func(ast.Expr) string) {
	covered := map[string]bool{}
	var deflt *ast.CaseClause
	for _, stmt := range body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			deflt = cc
		}
		for _, e := range cc.List {
			covered[caseKey(e)] = true
		}
	}
	var missing []string
	for _, v := range variants {
		if !covered[v.key] {
			missing = append(missing, v.name)
		}
	}
	if len(missing) == 0 || deflt != nil && bodyPanics(deflt.Body) {
		return
	}
	if deflt == nil {
		p.Reportf(pos, "exhaustive",
			"add the missing cases or a default clause that panics",
			nil, "switch over %s misses variants %s and has no default",
			typeName, strings.Join(missing, ", "))
		return
	}
	p.Reportf(pos, "exhaustive",
		"make the default panic (check.Failf) so a new variant cannot be silently absorbed",
		nil, "switch over %s misses variants %s behind a non-panicking default",
		typeName, strings.Join(missing, ", "))
}

// switchedInterface resolves the interface type being switched over and a
// printable name for it.
func switchedInterface(pkg *Package, sw *ast.TypeSwitchStmt) (*types.Named, string) {
	var x ast.Expr
	switch a := sw.Assign.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
				x = ta.X
			}
		}
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	}
	if x == nil {
		return nil, ""
	}
	named, ok := pkg.Info.TypeOf(x).(*types.Named)
	if !ok {
		return nil, ""
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return nil, ""
	}
	return named, named.Obj().Name()
}

// sealedModuleInterface reports whether iface is declared in a module
// package and has at least one unexported method (so no type outside the
// module can implement it: its implementer set is closed and enumerable).
func sealedModuleInterface(modulePkgs map[*types.Package]bool, named *types.Named) bool {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if !modulePkgs[obj.Pkg()] {
		return false
	}
	iface := named.Underlying().(*types.Interface)
	for i := 0; i < iface.NumMethods(); i++ {
		if !iface.Method(i).Exported() {
			return true
		}
	}
	return false
}

// implementers enumerates the module-declared named non-interface types
// implementing iface (by value or pointer receiver), in key order. A type's
// key is its qualified name.
func implementers(modulePkgs map[*types.Package]bool, named *types.Named) []variant {
	iface := named.Underlying().(*types.Interface)
	var out []variant
	for tpkg := range modulePkgs {
		scope := tpkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n == named {
				continue
			}
			if _, isIface := n.Underlying().(*types.Interface); isIface {
				continue
			}
			if types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface) {
				out = append(out, variant{key: typeKey(n), name: n.Obj().Name()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func typeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// bodyPanics reports whether stmts contain a call to panic or to a function
// named Failf (internal/check's violation panic).
func bodyPanics(stmts []ast.Stmt) bool {
	panics := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				name := calleeName(call)
				if name == "panic" || name == "Failf" {
					panics = true
				}
			}
			return !panics
		})
	}
	return panics
}
