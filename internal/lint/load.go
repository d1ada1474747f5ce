package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// LoadConfig parameterizes a load.
type LoadConfig struct {
	// Dir is the directory the go command runs in (empty: the working
	// directory). The main module is the one that holds it.
	Dir string
	// Patterns selects the packages to analyze, read relative to Dir as
	// `go vet` reads them: "./..." (the default when empty) selects every
	// package below Dir, "./internal/sim/..." a subtree, "./internal/sim"
	// one package.
	Patterns []string
}

// ModuleSet is one full module load: every package, plus the subset
// selected by the load patterns. Rules analyze All (reachability does not
// stop at a pattern boundary); only findings in Selected are reported.
type ModuleSet struct {
	// Fset positions every file of the load.
	Fset *token.FileSet
	// Root is the main module's directory, as the go command reports it.
	Root string
	// All is every non-standard package of the main module's build: its
	// own packages and what they import from other modules, in dependency
	// order.
	All []*Package
	// Selected is the pattern-matched subset, sorted by import path.
	Selected []*Package
}

// selectedFiles returns the set of file paths belonging to Selected.
func (s *ModuleSet) selectedFiles() map[string]bool {
	out := map[string]bool{}
	for _, pkg := range s.Selected {
		for _, f := range pkg.Files {
			out[s.Fset.Position(f.Pos()).Filename] = true
		}
	}
	return out
}

// LoadSet type-checks the main module's non-test packages using only the
// standard library. The go command supplies the package graph (`go list
// -deps`): which packages exist, their dependency order, and which files
// each compiles under the current build configuration. The loader parses
// those files and checks every non-standard package in that order;
// standard-library imports go through go/importer's "source" importer. A
// package the go command reports an error for fails the load.
//
// File names are Dir joined with each file's path below it, so a relative
// Dir gives relative names.
func LoadSet(cfg LoadConfig) (*ModuleSet, error) {
	dir, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	mods, err := goList(dir, "-m", "-json=Dir")
	if err != nil {
		return nil, err
	}
	if len(mods) == 0 || mods[0].Dir == "" { // an empty go.work lists one module with no directory
		return nil, fmt.Errorf("lint: no main module holds %s", dir)
	}
	root := mods[0].Dir
	listed, err := goList(root, "-e", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,Error,DepsErrors", "./...")
	if err != nil {
		return nil, err
	}
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	matched, err := goList(dir, append([]string{"-e", "-find", "-json=ImportPath,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, lp := range matched {
		if err := lp.err(); err != nil {
			return nil, err
		}
		want[lp.ImportPath] = true
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg.Types, nil
		}
		return std.Import(path)
	})
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		if err := lp.err(); err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(dir, lp.Dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(cfg.Dir, rel, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", lp.ImportPath, err)
		}
		pkg := &Package{Path: lp.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}
		checked[lp.ImportPath] = pkg
		pkgs = append(pkgs, pkg)
	}

	var selected []*Package
	for _, pkg := range pkgs {
		if want[pkg.Path] {
			selected = append(selected, pkg)
		}
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i].Path < selected[j].Path })
	return &ModuleSet{Fset: fset, Root: root, All: pkgs, Selected: selected}, nil
}

// listedPkg is the part of one `go list -json` record the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Error      *listError
	DepsErrors []*listError
}

// listError is a package error as `go list -e` reports it.
type listError struct {
	ImportStack []string
	Pos         string
	Err         string
}

// err returns the package's own error, else its first dependency error,
// naming the package either way.
func (p *listedPkg) err() error {
	e := p.Error
	if e == nil && len(p.DepsErrors) > 0 {
		e = p.DepsErrors[0]
	}
	if e == nil {
		return nil
	}
	msg := e.Err
	if e.Pos != "" {
		msg = e.Pos + ": " + msg
	}
	if len(e.ImportStack) > 1 {
		msg += " (" + strings.Join(e.ImportStack, " -> ") + ")"
	}
	return fmt.Errorf("lint: %s: %s", p.ImportPath, msg)
}

// goList runs `go list args...` in dir and decodes the JSON records it
// prints.
func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = errors.New(string(bytes.TrimSpace(exit.Stderr)))
		}
		return nil, fmt.Errorf("lint: go list in %s: %w", dir, err)
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
