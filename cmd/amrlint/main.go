// Command amrlint runs the repo's custom static analyzers (internal/lint)
// over the module: the determinism, map-order, exhaustive-switch and
// dropped-error rules — each kept because it caught a real defect here or
// because no runtime check can see its defect class. See
// DESIGN.md §8 for the rule table and the evidence ledger.
//
// Usage:
//
//	amrlint [-json] [-C dir] [patterns ...]
//
// Patterns default to ./... and mean what they mean to `go vet` run in the
// -C directory ("./internal/sim/...", "./cmd/experiments"); the go command
// supplies the package graph, and a package it reports an error for is a
// load error. File names in the output are relative to the main module's
// directory. Exit status is 1 when any diagnostic survives
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
// flag, no go.mod, a package error, a pattern matching nothing).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amrlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit one JSON object per diagnostic line, then one {\"waivers\":[…]} line")
	dir := fs.String("C", "", "directory to run the go command in (default: the working directory)")
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

	abs, err := filepath.Abs(*dir)
	if err != nil {
		return fail(err)
	}
	set, err := lint.LoadSet(lint.LoadConfig{Dir: abs, Patterns: fs.Args()})
	if err != nil {
		return fail(err)
	}
	if len(set.Selected) == 0 {
		// A typo'd pattern must not pass silently as "zero diagnostics".
		return fail(fmt.Errorf("patterns %v matched no packages", fs.Args()))
	}
	diags, waivers := lint.Run(set, lint.Analyzers())
	for i := range diags {
		diags[i].File = relativize(diags[i].File, set.Root)
	}
	for i := range waivers {
		waivers[i].File = relativize(waivers[i].File, set.Root)
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

// relativize rewrites an absolute file path to a module-relative one so
// output is stable across checkouts.
func relativize(file, root string) string {
	if rel, err := filepath.Rel(root, file); err == nil {
		return filepath.ToSlash(rel)
	}
	return file
}
