package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DefaultCorePackages is the deterministic core of this module: the packages
// whose outputs must be bit-identical across machines, runs, and harness
// worker counts (DESIGN.md §2). Wall-clock reads, ambient randomness,
// environment lookups, and ad-hoc goroutines inside them make result tables
// machine- or schedule-dependent.
var DefaultCorePackages = []string{
	"amrtools/internal/sim",
	"amrtools/internal/simnet",
	"amrtools/internal/mpi",
	"amrtools/internal/driver",
	"amrtools/internal/placement",
	"amrtools/internal/solver",
	"amrtools/internal/sfc",
	"amrtools/internal/cost",
	"amrtools/internal/mesh",
	"amrtools/internal/physics",
	"amrtools/internal/critpath",
	"amrtools/internal/health",
	"amrtools/internal/check",
	// The storage and query layer is core: the same file queried twice (or
	// on two machines) must return bit-identical tables, and the v2 footer
	// index must encode identically for identical input.
	"amrtools/internal/colfile",
	"amrtools/internal/tql",
}

// wallClockFuncs are the time-package functions that read or depend on the
// wall clock (or the scheduler's notion of real time).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// envFuncs are the os-package ambient-configuration reads.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
}

// Determinism flags wall-clock reads (time.Now/Since/…), math/rand usage,
// os environment lookups, and goroutine spawns in the deterministic core —
// and, since the rule went interprocedural, in every module function the
// core can reach: a time.Now in a "utility" package is just as
// schedule-visible when the core calls it, so findings outside the core
// carry a call-path witness from the core function that reaches them.
// Randomness must come from internal/xrand (seeded, stream-split);
// simulated time from the DES engine's virtual clock; configuration from
// Config structs; concurrency from the audited fork-join helpers already in
// place. Telemetry-only wall-clock reads are waivable with a reason.
//
// Runtime counterpart: the j1-vs-jN table-identity tests and the
// differential campaign (internal/check) — they detect the divergence these
// constructs cause, this rule names the construct before a campaign has to.
type Determinism struct {
	// Core is the set of import paths forming the deterministic core.
	Core []string
}

// NewDeterminism returns the determinism analyzer over the given core
// package set (DefaultCorePackages when nil).
func NewDeterminism(core []string) *Determinism {
	if core == nil {
		core = DefaultCorePackages
	}
	return &Determinism{Core: core}
}

func (d *Determinism) Name() string { return "determinism" }
func (d *Determinism) Doc() string {
	return "forbid wall-clock, math/rand, env lookups, and goroutine spawns in (and reachable from) the deterministic core"
}

func (d *Determinism) coreSet() map[string]bool {
	out := map[string]bool{}
	for _, p := range d.Core {
		out[p] = true
	}
	return out
}

// RunModule applies the in-core checks to every core package, then walks
// the call graph outward: any non-core module function reachable from core
// code — by direct call, sealed-interface dispatch, or function-value
// reference — is held to the same standard, with a call-path witness.
func (d *Determinism) RunModule(mp *ModulePass) {
	core := d.coreSet()
	for _, pkg := range mp.Set.All {
		if !core[pkg.Path] {
			continue
		}
		d.checkCorePkg(pkg, func(pos token.Pos, fix, format string, args ...interface{}) {
			mp.Reportf(pos, d.Name(), fix, nil, format, args...)
		})
	}
	var roots []*FuncNode
	for _, n := range mp.Graph.Nodes {
		if core[n.Pkg.Path] {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return
	}
	reach := mp.Graph.Reachable(roots)
	for _, n := range mp.Graph.Nodes {
		if core[n.Pkg.Path] || !reach.Has(n) {
			continue
		}
		d.checkReachedNode(mp, n, reach)
	}
}

// checkCorePkg applies the syntactic in-core checks to one core package.
func (d *Determinism) checkCorePkg(pkg *Package, report func(pos token.Pos, fix, format string, args ...interface{})) {
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				report(spec.Pos(),
					"use internal/xrand (seeded, stream-splittable)",
					"import of %s in deterministic core package %s", path, pkg.Path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n.Pos(),
					"use a deterministic fork-join (fixed partition, WaitGroup, disjoint writes) and waive it with the invariant it preserves",
					"goroutine spawn in deterministic core package %s", pkg.Path)
			case *ast.SelectorExpr:
				// Flagging the selector rather than a call catches stored
				// references (fn := time.Now) as well as direct calls.
				pkgName, fun := pkgSelector(pkg, n)
				switch {
				case pkgName == "time" && wallClockFuncs[fun]:
					report(n.Pos(),
						"derive times from the DES virtual clock or replace the wall-clock dependence with a deterministic budget",
						"wall-clock call time.%s in deterministic core package %s", fun, pkg.Path)
				case pkgName == "os" && envFuncs[fun]:
					report(n.Pos(),
						"thread configuration through the package's Config struct",
						"environment lookup os.%s in deterministic core package %s", fun, pkg.Path)
				}
			}
			return true
		})
	}
}

// checkReachedNode applies the determinism checks to the own body of a
// non-core function the core reaches.
func (d *Determinism) checkReachedNode(mp *ModulePass, n *FuncNode, reach *Reach) {
	path := reach.Path(n)
	walkOwn(n.Body(), func(node ast.Node) {
		switch node := node.(type) {
		case *ast.GoStmt:
			mp.Reportf(node.Pos(), d.Name(),
				"restructure so the core does not reach this spawn, or waive it with the invariant that keeps it schedule-invisible",
				path, "goroutine spawn in %s, reachable from the deterministic core", n.Name)
		case *ast.SelectorExpr:
			pkgName, fun := pkgSelector(n.Pkg, node)
			switch {
			case pkgName == "time" && wallClockFuncs[fun]:
				mp.Reportf(node.Pos(), d.Name(),
					"derive times from the DES virtual clock or hoist the wall-clock read out of core-reachable code",
					path, "wall-clock call time.%s in %s, reachable from the deterministic core", fun, n.Name)
			case pkgName == "os" && envFuncs[fun]:
				mp.Reportf(node.Pos(), d.Name(),
					"thread configuration through a Config struct instead of reading the environment",
					path, "environment lookup os.%s in %s, reachable from the deterministic core", fun, n.Name)
			case (pkgName == "math/rand" || pkgName == "math/rand/v2") && fun != "":
				mp.Reportf(node.Pos(), d.Name(),
					"use internal/xrand (seeded, stream-splittable)",
					path, "math/rand use rand.%s in %s, reachable from the deterministic core", fun, n.Name)
			}
		}
	})
}

// pkgSelector resolves a selector of the form pkg.Fun where pkg is an
// imported package name, returning the package path and function name
// ("" when the selector has another shape, e.g. a method on a value).
func pkgSelector(pkg *Package, sel *ast.SelectorExpr) (pkgPath, fun string) {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
