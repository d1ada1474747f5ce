package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// fixtureCopy copies the fixture module to a fresh directory, adds the
// given files (module-relative name → source), and returns the directory.
func fixtureCopy(t *testing.T, extra map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "src", "fixturemod"))); err != nil {
		t.Fatal(err)
	}
	for name, src := range extra {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func pkgPaths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.Path)
	}
	return out
}

// TestLoadHonorsFileNameGOOS: a file whose name restricts it to another
// operating system is not part of the build, so a body that does not
// compile here must not fail the load.
func TestLoadHonorsFileNameGOOS(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("the excluded file is the windows one")
	}
	dir := fixtureCopy(t, map[string]string{
		"util/x_windows.go": "package util\n\nvar _ = undefinedOffWindows\n",
	})
	set, err := LoadSet(LoadConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range set.All {
		for _, f := range pkg.Files {
			if name := set.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_windows.go") {
				t.Errorf("loaded %s", name)
			}
		}
	}
}

// TestLoadSkipsNestedModule: a directory with its own go.mod is another
// module, which ./... at the root does not reach.
func TestLoadSkipsNestedModule(t *testing.T) {
	dir := fixtureCopy(t, map[string]string{
		"nested/go.mod":    "module fixturemod/nested\n\ngo 1.23\n",
		"nested/nested.go": "package nested\n",
	})
	set, err := LoadSet(LoadConfig{Dir: dir, Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkgPaths(set.All) {
		if strings.HasPrefix(path, "fixturemod/nested") {
			t.Errorf("loaded %s from the nested module", path)
		}
	}
}

// TestLoadSubtreePattern: a subtree pattern selects only its packages, while
// the load still holds the whole module for the interprocedural rules.
func TestLoadSubtreePattern(t *testing.T) {
	set, err := LoadSet(LoadConfig{Dir: filepath.Join("testdata", "src", "fixturemod"), Patterns: []string{"./core/..."}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pkgPaths(set.Selected); !slices.Equal(got, []string{"fixturemod/core"}) {
		t.Errorf("selected %v, want [fixturemod/core]", got)
	}
	if all := pkgPaths(set.All); !slices.Contains(all, "fixturemod/util") {
		t.Errorf("load %v lacks fixturemod/util, which the core calls", all)
	}
}
