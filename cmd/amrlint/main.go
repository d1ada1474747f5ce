// Command amrlint runs the repo's custom static analyzers (internal/lint)
// over the module: the determinism, map-order, exhaustive-switch,
// dropped-error and metric-plane rules — each kept because it caught a real
// defect here or because no runtime check can see its defect class. See
// DESIGN.md §8 for the rule table and the evidence ledger.
//
// Usage:
//
//	amrlint [-json] [-C dir] [patterns ...]
//
// Patterns default to ./... and are module-relative ("./internal/sim/...",
// "./cmd/experiments"). Exit status is 1 when any diagnostic survives
// waivers, 2 on load errors — so `go run ./cmd/amrlint ./...` is a CI gate.
//
// In -json mode each diagnostic is one JSON object per line, and the stream
// closes with one object listing the live waiver set:
//
//	{"file":"internal/solver/solver.go","line":70,"col":14,"rule":"determinism","message":"…","fix":"…"}
//	{"waivers":[{"file":"internal/driver/driver.go","line":597,"rule":"determinism","reason":"…"}]}
//
// Text mode prints the waiver count on stderr; that number — not a grep for
// the directive, which also hits docs and usage strings — is the figure
// CHANGES.md reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"amrtools/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning the exit status: 0 clean,
// 1 when a diagnostic survives waivers, 2 for a usage or load error (bad
// flag, no go.mod, a pattern matching nothing).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amrlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit one JSON object per diagnostic line, then one {\"waivers\":[…]} line")
	dir := fs.String("C", "", "module root (default: nearest go.mod above the working directory)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: amrlint [-json] [-C dir] [patterns ...]\n\nrules:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name(), a.Doc())
		}
		fmt.Fprintf(stderr, "  %-12s malformed or unused //lint:ignore waivers\n\nflags:\n", lint.WaiverRule)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "amrlint:", err)
		return 2
	}

	root := *dir
	if root == "" {
		var err error
		if root, err = moduleRoot(); err != nil {
			return fail(err)
		}
	}
	set, err := lint.LoadSet(lint.LoadConfig{Dir: root, Patterns: fs.Args()})
	if err != nil {
		return fail(err)
	}
	if len(set.Selected) == 0 {
		// A typo'd pattern must not pass silently as "zero diagnostics".
		return fail(fmt.Errorf("patterns %v matched no packages", fs.Args()))
	}
	diags, waivers := lint.Run(set, lint.Analyzers())
	for i := range diags {
		diags[i].File = relativize(diags[i].File, root)
	}
	for i := range waivers {
		waivers[i].File = relativize(waivers[i].File, root)
	}

	if *jsonOut {
		if err := lint.WriteJSON(stdout, diags, waivers); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		fmt.Fprintf(stderr, "amrlint: %d live waiver(s)\n", len(waivers))
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "amrlint: %d diagnostic(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// relativize rewrites an absolute file path to a module-relative one so
// output is stable across checkouts.
func relativize(file, root string) string {
	if rel, err := filepath.Rel(root, file); err == nil {
		return filepath.ToSlash(rel)
	}
	return file
}
