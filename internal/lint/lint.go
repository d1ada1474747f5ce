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
// Every rule is one kind, a Rule run once over the whole module. The module
// call graph (callgraph.go) is the one shared structure: built once per Run,
// it gives determinism its reachability and errdrop its callees.
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

// A Rule is one named check over the module.
type Rule interface {
	// Name is the stable rule id used in diagnostics and waivers.
	Name() string
	// Doc is a one-line description for amrlint's usage text.
	Doc() string
	// Run analyzes the module, reporting findings through p.Reportf.
	Run(p *Pass)
}

// Pass is one rule's view of the module: every loaded package, the
// pattern-selected subset, and the call graph. The graph is built once per
// Run and shared by every rule.
type Pass struct {
	// Set holds every loaded package plus the pattern-selected subset.
	Set *ModuleSet
	// Graph is the module call graph (static calls, sealed-interface
	// dispatch, closure/function-value references).
	Graph *Graph

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos under the given rule, with an
// optional call-path witness (root → containing function display names).
func (p *Pass) Reportf(pos token.Pos, rule, fix string, path []string, format string, args ...interface{}) {
	position := p.Set.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
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
// live waiver set of the selected packages. A rule sees the whole module
// (an interprocedural fact does not stop at a pattern boundary), but only
// its findings in selected packages are kept.
func Run(set *ModuleSet, rules []Rule) ([]Diagnostic, []Waiver) {
	var raw []Diagnostic
	p := &Pass{Set: set, Graph: BuildGraph(set.All), diags: &raw}
	for _, r := range rules {
		r.Run(p)
	}
	selected := set.selectedFiles()
	var kept []Diagnostic
	for _, d := range raw {
		if selected[d.File] {
			kept = append(kept, d)
		}
	}
	ws := collectWaivers(set.All)
	diags := append(ws.filter(kept), ws.unusedIn(selected)...)
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
