package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture files under testdata/src/fixturemod mark every expected finding
// with a trailing marker comment:
//
//	code()            // want `regex matched against the message`
//	// want-prev `…`  (expectation for the line above, for lines that
//	                   cannot carry a trailing comment, e.g. waiver lines)
//
// TestFixtures asserts exact agreement: every diagnostic must be claimed by
// a marker and every marker must be hit, so both false positives and false
// negatives fail the suite.
var wantRe = regexp.MustCompile("// want(-prev)? `([^`]+)`")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func collectExpectations(t *testing.T, root string) []*expectation {
	t.Helper()
	var out []*expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, text := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
				line := i + 1
				if m[1] == "-prev" {
					line--
				}
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[2], err)
				}
				out = append(out, &expectation{file: path, line: line, pattern: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("no want markers under %s", root)
	}
	return out
}

// fixtureAnalyzers is the production set with the determinism and
// plane-classification cores pointed at the fixture module's core package.
func fixtureAnalyzers() []Rule {
	return []Rule{
		NewDeterminism([]string{"fixturemod/core"}),
		MapOrder{},
		Exhaustive{},
		ErrDrop{},
		NewPlaneCross([]string{"fixturemod/core"}),
	}
}

func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src", "fixturemod")
	set, err := LoadSet(LoadConfig{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	diags, _ := Run(set, fixtureAnalyzers())
	wants := collectExpectations(t, root)

	for _, d := range diags {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.File && w.line == d.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}
