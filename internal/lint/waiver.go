package lint

import (
	"sort"
	"strings"
)

// A Waiver is one //lint:ignore <rule> <reason> comment. It suppresses
// diagnostics of the named rule on the line it trails, or — when it stands
// alone on its own line — on the next line. Every waiver must carry a
// non-empty reason, and a waiver that suppresses nothing is itself reported
// (rule "waiver"), so removing the offending code without removing its
// waiver still fails the build. The live waivers are amrlint's debt
// register (-json's "waivers" line, the count `make lint` prints), which
// the ROADMAP says only goes down.
type Waiver struct {
	File   string `json:"file"`
	Line   int    `json:"line"` // line of the comment itself
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
}

// waiver is a Waiver plus whether it suppressed anything this run.
type waiver struct {
	Waiver
	used bool
}

// WaiverRule is the rule id under which malformed and unused waivers are
// reported. It is not waivable: a waiver comment cannot excuse another
// waiver comment.
const WaiverRule = "waiver"

// waiverSet indexes waivers by file.
type waiverSet struct {
	byFile map[string][]*waiver
	broken []Diagnostic // malformed //lint:ignore comments
}

// collectWaivers scans every file's comments for //lint:ignore directives.
func collectWaivers(pkgs []*Package) *waiverSet {
	ws := &waiverSet{byFile: map[string][]*waiver{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						ws.broken = append(ws.broken, Diagnostic{
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Rule:    WaiverRule,
							Message: "malformed waiver: want //lint:ignore <rule> <reason>",
							Fix:     "state the rule id and a one-line reason",
						})
						continue
					}
					ws.add(&waiver{Waiver: Waiver{
						File:   pos.Filename,
						Line:   pos.Line,
						Rule:   fields[0],
						Reason: strings.Join(fields[1:], " "),
					}})
				}
			}
		}
	}
	return ws
}

func (ws *waiverSet) add(w *waiver) {
	ws.byFile[w.File] = append(ws.byFile[w.File], w)
}

// covers reports whether w suppresses a diagnostic of the given rule at
// file:line.
func (w *waiver) covers(rule, file string, line int) bool {
	if w.Rule != rule || w.File != file {
		return false
	}
	// A waiver covers its own line (trailing form) and the following line
	// (standalone form). Covering both keeps the directive usable without
	// the scanner having to know which form it is.
	return line == w.Line || line == w.Line+1
}

// filter drops waived diagnostics, marking the waivers that fired.
func (ws *waiverSet) filter(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Rule == WaiverRule {
			out = append(out, d)
			continue
		}
		waived := false
		for _, w := range ws.byFile[d.File] {
			if w.covers(d.Rule, d.File, d.Line) {
				w.used = true
				waived = true
			}
		}
		if !waived {
			out = append(out, d)
		}
	}
	return out
}

// unusedIn reports every waiver in the selected file set that suppressed
// nothing, plus malformed ones. Waivers outside the selection are left
// alone: their diagnostics were filtered out with their packages, so "no
// diagnostic suppressed" would be an artifact of the pattern, not a fact
// about the code.
func (ws *waiverSet) unusedIn(selected map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range ws.broken {
		if selected[d.File] {
			out = append(out, d)
		}
	}
	files := make([]string, 0, len(ws.byFile))
	for f := range ws.byFile {
		if selected[f] {
			files = append(files, f)
		}
	}
	sort.Strings(files)
	for _, f := range files {
		for _, w := range ws.byFile[f] {
			if !w.used {
				out = append(out, Diagnostic{
					File: w.File, Line: w.Line, Col: 1,
					Rule:    WaiverRule,
					Message: "unused waiver for rule " + w.Rule + ": no diagnostic suppressed",
					Fix:     "delete the //lint:ignore comment",
				})
			}
		}
	}
	return out
}

// liveIn lists every well-formed waiver in the selected file set, sorted by
// file and line. (A listed waiver that suppressed nothing is also a
// diagnostic, so on a clean tree every entry is load-bearing.)
func (ws *waiverSet) liveIn(selected map[string]bool) []Waiver {
	out := []Waiver{}
	for f, list := range ws.byFile {
		if !selected[f] {
			continue
		}
		for _, w := range list {
			out = append(out, w.Waiver)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}
