package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"amrtools/internal/lint"
)

// amrlintCLI runs the command in process and returns its exit status and
// the two output streams.
func amrlintCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestCLI pins exit codes and output shape: usage and load errors exit 2,
// the module itself is clean (exit 0, nothing on stdout, the waiver count on
// stderr), and -json closes its stream with the waiver register.
func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	t.Run("unknown flag", func(t *testing.T) {
		code, stdout, stderr := amrlintCLI("-nosuchflag")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "nosuchflag") || !strings.Contains(stderr, "rules:") {
			t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming the flag above the rule list", code, stdout, stderr)
		}
		// The rule list is the four analyzers plus the waiver check, one
		// indented line each between "rules:" and "flags:".
		list := stderr[strings.Index(stderr, "rules:\n")+len("rules:\n") : strings.Index(stderr, "\nflags:")]
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
			got = append(got, strings.Fields(line)[0])
		}
		if want := "determinism maporder exhaustive errdrop waiver"; strings.Join(got, " ") != want {
			t.Errorf("usage lists rules %q, want %q", strings.Join(got, " "), want)
		}
	})
	t.Run("pattern matching nothing", func(t *testing.T) {
		code, stdout, stderr := amrlintCLI("-C", "../..", "./nosuch/...")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "./nosuch/...") {
			t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming the pattern", code, stdout, stderr)
		}
	})
	t.Run("module is clean", func(t *testing.T) {
		code, stdout, stderr := amrlintCLI("-C", "../..", "./...")
		if code != 0 || stdout != "" {
			t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
		}
		if !regexp.MustCompile(`^amrlint: [0-9]+ live waiver\(s\)\n$`).MatchString(stderr) {
			t.Fatalf("stderr %q; want exactly the waiver count line", stderr)
		}
	})
	t.Run("json closes with the waivers", func(t *testing.T) {
		code, stdout, stderr := amrlintCLI("-json", "-C", "../..", "./internal/placement/...")
		if code != 0 || stderr != "" {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
		lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"waivers":[`) {
			t.Fatalf("last line %q is not the waivers object", last)
		}
		diags, waivers, err := lint.ReadJSON(strings.NewReader(stdout))
		if err != nil || len(diags) != 0 || len(waivers) == 0 {
			t.Fatalf("ReadJSON: %d diagnostics, %d waivers, err %v; want the placement package's waivers only", len(diags), len(waivers), err)
		}
		for _, w := range waivers {
			if !strings.HasPrefix(w.File, "internal/placement/") {
				t.Errorf("waiver %+v is not module-relative under the selected package", w)
			}
		}
	})
}

// TestCLIPackageError: a package the go command reports an error for (here
// an import cycle) is a load error: exit 2, naming the package.
func TestCLIPackageError(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("../../internal/lint/testdata/src/fixturemod")); err != nil {
		t.Fatal(err)
	}
	cycle := "package util\n\nimport _ \"fixturemod/core\"\n"
	if err := os.WriteFile(filepath.Join(dir, "util", "cycle.go"), []byte(cycle), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := amrlintCLI("-C", dir, "./...")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "fixturemod/util: import cycle not allowed") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming fixturemod/util's import cycle", code, stdout, stderr)
	}
}
