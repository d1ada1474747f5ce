package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/experiments"
)

// experimentsCLI runs the command in process and returns its exit status
// and the two output streams.
func experimentsCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// maskNondet blanks the experiments.NondetCols fields of a rendered table
// (header line, dash line, rows) so wall-clock columns compare equal.
func maskNondet(t *testing.T, table []string) []string {
	t.Helper()
	cols := strings.Fields(table[0])
	masked := map[int]bool{}
	for i, c := range cols {
		for _, nd := range experiments.NondetCols {
			if c == nd {
				masked[i] = true
			}
		}
	}
	out := []string{strings.Join(cols, " ")}
	for _, line := range table[2:] {
		f := strings.Fields(line)
		if len(f) != len(cols) {
			t.Fatalf("row %q has %d fields under a %d-column header", line, len(f), len(cols))
		}
		for i := range f {
			if masked[i] {
				f[i] = "*"
			}
		}
		out = append(out, strings.Join(f, " "))
	}
	return out
}

// TestCLI pins exit codes and output shape: usage errors exit 2 and name
// what is known, tables land on stdout only, progress and file notices on
// stderr only.
func TestCLI(t *testing.T) {
	t.Run("unknown experiment id", func(t *testing.T) {
		code, stdout, stderr := experimentsCLI("-quick", "-only", "nosuch")
		if code != 2 || stdout != "" {
			t.Fatalf("exit %d, stdout %q; want exit 2 and no tables", code, stdout)
		}
		for _, want := range append([]string{`unknown experiment "nosuch"`}, experiments.SuiteIDs()...) {
			if !strings.Contains(stderr, want) {
				t.Errorf("stderr does not mention %q:\n%s", want, stderr)
			}
		}
	})
	t.Run("unknown flag", func(t *testing.T) {
		code, stdout, stderr := experimentsCLI("-nosuchflag")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "nosuchflag") {
			t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming the flag", code, stdout, stderr)
		}
	})
	t.Run("table1", func(t *testing.T) {
		code, stdout, stderr := experimentsCLI("-quick", "-j", "1", "-only", "table1")
		want := "=== Table I: Sedov Blast Wave 3D problem configurations [table1] ===\n" +
			"ranks  mesh      t_total  t_lb  n_initial  n_final\n" +
			"-----  --------  -------  ----  ---------  -------\n" +
			"128    64^2x128  25       3     128        632    \n\n"
		if code != 0 || stdout != want {
			t.Fatalf("exit %d, stdout:\n%s\nwant:\n%s", code, stdout, want)
		}
		if !strings.Contains(stderr, "[table1] elapsed") || !strings.Contains(stderr, "1/1 done") {
			t.Errorf("progress and timing missing from stderr:\n%s", stderr)
		}
	})
	t.Run("wall-clock table and -out", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "campaign.col")
		code, stdout, stderr := experimentsCLI("-quick", "-j", "1", "-only", "fig7c", "-out", out)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
		if lines[0] != "=== Fig 7 (bottom): placement computation overhead [fig7c] ===" {
			t.Fatalf("header line %q", lines[0])
		}
		got := maskNondet(t, lines[1:])
		want := []string{
			"ranks policy placement_ms within_50ms_budget",
			"512 cpl50 * *", "2048 cpl50 * *", "8192 cpl50 * *",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("masked table:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if !strings.Contains(stderr, "campaign telemetry: 4 rows -> "+out) {
			t.Errorf("stderr lacks the -out notice:\n%s", stderr)
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
		if r.NumRows() != 4 || r.ColIndex("wall_ms") < 0 {
			t.Fatalf("campaign colfile has %d rows, wall_ms at %d; want 3 runs + the campaign row", r.NumRows(), r.ColIndex("wall_ms"))
		}
	})
	t.Run("scalebench sweeps", func(t *testing.T) {
		// The §VI-C synthetic sweeps: the makespan panel then the overhead
		// panel, each headed and followed by a blank line.
		code, stdout, stderr := experimentsCLI("-quick", "-only", "fig7b,fig7c", "-j", "1")
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		panels := strings.Split(strings.TrimRight(stdout, "\n"), "\n\n")
		if len(panels) != 2 {
			t.Fatalf("stdout holds %d blank-line-separated panels, want 2:\n%s", len(panels), stdout)
		}
		makespan := strings.Split(panels[0], "\n")
		if makespan[0] != "=== Fig 7 (middle): scalebench normalized makespan [fig7b] ===" {
			t.Fatalf("first header %q", makespan[0])
		}
		// 2 scales x 3 distributions x (baseline + 5 CPLX settings).
		rows := maskNondet(t, makespan[1:])
		if rows[0] != "ranks dist policy norm_makespan" || len(rows) != 1+36 ||
			rows[1] != "512 exponential baseline 1.64073" || rows[36] != "2048 powerlaw cpl100 1" {
			t.Fatalf("makespan table (%d lines):\n%s", len(rows), strings.Join(rows, "\n"))
		}
		overhead := strings.Split(panels[1], "\n")
		if overhead[0] != "=== Fig 7 (bottom): placement computation overhead [fig7c] ===" {
			t.Fatalf("second header %q", overhead[0])
		}
		got := maskNondet(t, overhead[1:])
		want := []string{
			"ranks policy placement_ms within_50ms_budget",
			"512 cpl50 * *", "2048 cpl50 * *", "8192 cpl50 * *",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("masked overhead table:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if !strings.Contains(stderr, "[fig7b] 6/6 done") || !strings.Contains(stderr, "[fig7c] 3/3 done") {
			t.Errorf("stderr lacks the progress lines:\n%s", stderr)
		}
	})
	t.Run("unwritable -out", func(t *testing.T) {
		code, _, stderr := experimentsCLI("-quick", "-j", "1", "-only", "table1",
			"-out", filepath.Join(t.TempDir(), "no", "such", "dir.col"))
		if code != 1 || !strings.Contains(stderr, "\nexperiments: ") {
			t.Fatalf("exit %d, stderr:\n%s\nwant exit 1 and an experiments: error line", code, stderr)
		}
	})
}
