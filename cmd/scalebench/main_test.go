package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/experiments"
)

// scalebenchCLI runs the command in process and returns its exit status and
// the two output streams.
func scalebenchCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// maskedRows returns a rendered table (header line, dash line, rows) as
// space-joined fields with the experiments.NondetCols fields blanked.
func maskedRows(t *testing.T, table []string) []string {
	t.Helper()
	cols := strings.Fields(table[0])
	out := []string{strings.Join(cols, " ")}
	for _, line := range table[2:] {
		f := strings.Fields(line)
		if len(f) != len(cols) {
			t.Fatalf("row %q has %d fields under a %d-column header", line, len(f), len(cols))
		}
		for i := range f {
			if slices.Contains(experiments.NondetCols, cols[i]) {
				f[i] = "*"
			}
		}
		out = append(out, strings.Join(f, " "))
	}
	return out
}

// TestCLI pins exit codes and output shape: a bad flag exits 2, the default
// sweep prints its two captioned tables on stdout only, and -metrics writes
// the campaign telemetry as a readable colfile.
func TestCLI(t *testing.T) {
	t.Run("unknown flag", func(t *testing.T) {
		code, stdout, stderr := scalebenchCLI("-nosuchflag")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "nosuchflag") {
			t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming the flag", code, stdout, stderr)
		}
	})
	t.Run("default sweep and -metrics", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "campaign.col")
		code, stdout, stderr := scalebenchCLI("-j", "1", "-metrics", out)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		panels := strings.Split(strings.TrimRight(stdout, "\n"), "\n\n")
		if len(panels) != 2 {
			t.Fatalf("stdout holds %d blank-line-separated panels, want 2:\n%s", len(panels), stdout)
		}
		makespan := strings.Split(panels[0], "\n")
		if makespan[0] != "scalebench: normalized makespan (makespan / lower bound, lower is better)" {
			t.Fatalf("first caption %q", makespan[0])
		}
		// 2 scales x 3 distributions x (baseline + 5 CPLX settings).
		rows := maskedRows(t, makespan[1:])
		if rows[0] != "ranks dist policy norm_makespan" || len(rows) != 1+36 ||
			rows[1] != "512 exponential baseline 1.64073" || rows[36] != "2048 powerlaw cpl100 1" {
			t.Fatalf("makespan table (%d lines):\n%s", len(rows), strings.Join(rows, "\n"))
		}
		overhead := strings.Split(panels[1], "\n")
		if overhead[0] != "scalebench: placement computation overhead (50 ms budget)" {
			t.Fatalf("second caption %q", overhead[0])
		}
		got := maskedRows(t, overhead[1:])
		want := []string{
			"ranks policy placement_ms within_50ms_budget",
			"512 cpl50 * *", "2048 cpl50 * *", "8192 cpl50 * *",
		}
		if !slices.Equal(got, want) {
			t.Fatalf("masked overhead table:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}

		if !strings.Contains(stderr, "campaign telemetry: 11 rows -> "+out) || !strings.Contains(stderr, "[fig7b] 6/6 done") {
			t.Errorf("stderr lacks the progress lines or the -metrics notice:\n%s", stderr)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		r, err := colfile.OpenFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// 6 + 3 runs and one row per campaign.
		if r.NumRows() != 11 || r.ColIndex("wall_ms") < 0 {
			t.Fatalf("campaign colfile has %d rows, wall_ms at %d; want 11 rows", r.NumRows(), r.ColIndex("wall_ms"))
		}
	})
	t.Run("unwritable -metrics", func(t *testing.T) {
		code, _, stderr := scalebenchCLI("-j", "1", "-metrics", filepath.Join(t.TempDir(), "no", "such", "dir.col"))
		if code != 1 || !strings.Contains(stderr, "\nscalebench: ") {
			t.Fatalf("exit %d, stderr:\n%s\nwant exit 1 and a scalebench: error line", code, stderr)
		}
	})
}
