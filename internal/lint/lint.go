// Package lint is amrlint: a stdlib-only static analyzer for the constructs
// that make this repo's experiment tables irreproducible or silently wrong.
//
// The tables are the product, and DESIGN.md promises they are bit-identical
// across machines and harness worker counts. Most of that promise is
// enforced at runtime — paranoid-mode audits (internal/check), the identity
// suites, allocation budgets, the race detector. This package holds the four
// rules that either caught a real defect on this tree or describe a defect no
// runtime check can see: a stray time.Now in the deterministic core
// (determinism), ranging over a map into an ordered sink (maporder), a
// kind-switch that silently drops a new variant (exhaustive), a swallowed
// module error (errdrop). An invariant has exactly one enforcement: a rule
// whose defect class a runtime test already fails on is deleted, not kept as
// a second opinion. DESIGN.md §8 holds the rule table and the per-rule
// evidence ledger.
//
// The implementation is deliberately stdlib-only: go/parser, go/ast and
// go/types with the "source" importer — no golang.org/x/tools. The go
// command supplies the package graph (`go list -deps`, with build
// constraints applied); the loader in load.go parses and type-checks the
// module's packages in that order, and only standard-library imports are
// delegated to the source importer.
//
// Diagnostics can be waived at the site with
//
//	//lint:ignore <rule> <reason>
//
// either trailing the offending line or on the line directly above it. A
// waiver that suppresses nothing is itself a diagnostic (rule "waiver"), so
// stale waivers cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding: the position, the stable rule id, the
// human message, a suggested fix, and — for the interprocedural rules — the
// call-path witness that makes the finding checkable by a reviewer. It is
// the unit of amrlint's output in both text and -json modes.
type Diagnostic struct {
	// File is the path of the offending file as given to the loader.
	File string `json:"file"`
	// Line and Col are the 1-based position of the finding.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Rule is the stable rule id ("determinism", "maporder", "exhaustive",
	// "errdrop", "waiver").
	Rule string `json:"rule"`
	// Message describes the violation.
	Message string `json:"message"`
	// Fix is the suggested remediation, when the analyzer has one.
	Fix string `json:"fix,omitempty"`
	// Path is the call-path witness of an interprocedural finding: function
	// display names from the analysis root (a core function) to the function
	// containing the flagged site. Empty for the purely local rules.
	Path []string `json:"path,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
	if len(d.Path) > 0 {
		s += " [via " + strings.Join(d.Path, " -> ") + "]"
	}
	if d.Fix != "" {
		s += " (fix: " + d.Fix + ")"
	}
	return s
}

// Package is one loaded, type-checked package of the module under analysis.
type Package struct {
	// Path is the import path ("amrtools/internal/sim").
	Path string
	// Fset positions every file of the load (shared across packages).
	Fset *token.FileSet
	// Files are the parsed non-test files, in deterministic (name) order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's per-node facts for the files.
	Info *types.Info
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Pkg *Package
	// Module holds every loaded module package, for whole-module questions
	// (e.g. enumerating the implementers of a sealed interface).
	Module []*Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos under the given rule.
func (p *Pass) Reportf(pos token.Pos, rule, fix, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
	})
}

// TypeOf is a nil-tolerant shorthand for the type of an expression.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object (nil when unresolved).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Defs[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Uses[id]
}

// A Rule is one named check. Every rule is exactly one of an Analyzer (per
// package) or a ModuleAnalyzer (whole module).
type Rule interface {
	// Name is the stable rule id used in diagnostics and waivers.
	Name() string
	// Doc is a one-line description for amrlint's usage text.
	Doc() string
}

// An Analyzer checks one rule over one package at a time.
type Analyzer interface {
	Rule
	// Run analyzes pass.Pkg, reporting findings through pass.Reportf.
	Run(pass *Pass)
}

// A ModuleAnalyzer checks one rule over the whole module at once — the
// interface of the interprocedural rules, which need the module call graph
// and the per-function summaries rather than one package's AST.
type ModuleAnalyzer interface {
	Rule
	// RunModule analyzes the whole module through the shared call graph and
	// summaries, reporting through mp.Reportf.
	RunModule(mp *ModulePass)
}

// ModulePass is one interprocedural analyzer's view of the module: every
// loaded package, the call graph, and the per-function summaries. Graph and
// summaries are built once per Run and shared by all module analyzers.
type ModulePass struct {
	// Set holds every loaded package plus the pattern-selected subset.
	Set *ModuleSet
	// Graph is the module call graph (static calls, sealed-interface
	// dispatch, closure/function-value references).
	Graph *Graph
	// Sums holds the per-function summaries (error propagation).
	Sums *Summaries

	diags *[]Diagnostic
}

// Reportf records an interprocedural diagnostic at pos, with an optional
// call-path witness (root → containing function display names).
func (mp *ModulePass) Reportf(pos token.Pos, rule, fix string, path []string, format string, args ...interface{}) {
	position := mp.Set.Fset.Position(pos)
	*mp.diags = append(*mp.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
		Path:    path,
	})
}

// Run executes every rule over the module, applies waivers, flags unused
// waivers, and returns the surviving diagnostics sorted by position plus the
// live waiver set of the selected packages. Per-package analyzers see the
// pattern-selected packages; module analyzers always see the whole module
// (an interprocedural fact does not stop at a pattern boundary) but their
// findings are filtered to selected packages.
func Run(set *ModuleSet, rules []Rule) ([]Diagnostic, []Waiver) {
	var raw []Diagnostic
	var modRaw []Diagnostic
	var mp *ModulePass
	var perPkg []Analyzer
	for _, r := range rules {
		switch a := r.(type) {
		case ModuleAnalyzer:
			if mp == nil {
				g := BuildGraph(set.All)
				mp = &ModulePass{Set: set, Graph: g, Sums: Summarize(g), diags: &modRaw}
			}
			a.RunModule(mp)
		case Analyzer:
			perPkg = append(perPkg, a)
		default:
			panic("lint: rule " + r.Name() + " is neither an Analyzer nor a ModuleAnalyzer")
		}
	}
	for _, pkg := range set.Selected {
		pass := &Pass{Pkg: pkg, Module: set.All, diags: &raw}
		for _, a := range perPkg {
			a.Run(pass)
		}
	}
	raw = append(raw, set.restrict(modRaw)...)
	ws := collectWaivers(set.All)
	diags := ws.filter(raw)
	selected := set.selectedFiles()
	diags = append(diags, ws.unusedIn(selected)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags, ws.liveIn(selected)
}
