package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"amrtools/internal/colfile"
	"amrtools/internal/experiments"
	"amrtools/internal/harness"
	"amrtools/internal/telemetry"
)

// experimentsCLI runs the command in process and returns its exit status
// and the two output streams.
func experimentsCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// hostCols names the host-plane columns of a quick Fig 7c table, the only
// rendered table with host readings: its schema says which they are.
var hostCols = sync.OnceValues(func() ([]string, error) {
	tab, err := experiments.Fig7c(experiments.Options{Quick: true, Seed: 42})
	if err != nil {
		return nil, err
	}
	return tab.HostCols(), nil
})

// maskNondet blanks the host-plane fields of a rendered table (header line,
// dash line, rows) so wall-clock columns compare equal.
func maskNondet(t *testing.T, table []string) []string {
	t.Helper()
	host, err := hostCols()
	if err != nil {
		t.Fatal(err)
	}
	cols := strings.Fields(table[0])
	masked := map[int]bool{}
	for i, c := range cols {
		masked[i] = slices.Contains(host, c)
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

// cutLedger cuts stdout at the paper-claims header, requires the ledger
// under it to list exactly experiment exp's claims, and returns the figure
// tables above it.
func cutLedger(t *testing.T, stdout, exp string) string {
	t.Helper()
	tables, ledger, _ := strings.Cut(stdout, "=== paper claims ===\n")
	var got, want []string
	lines := strings.Split(strings.TrimSpace(ledger), "\n")
	for _, line := range lines[min(2, len(lines)):] { // below the header and its dashes
		got = append(got, strings.Fields(line)[0])
	}
	for _, c := range experiments.Shapes {
		if slices.Equal(c.Exps, []string{exp}) {
			want = append(want, c.ID)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("paper claims %v, want %s's %v:\n%s", got, exp, want, stdout)
	}
	return tables
}

// TestCLI pins exit codes and output shape: usage errors exit 2 and name
// what is known, a failed experiment exits 3 and names its spec, tables land
// on stdout only, progress, failures and file notices on stderr only.
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
		if code != 0 || cutLedger(t, stdout, "table1") != want {
			t.Fatalf("exit %d, stdout:\n%s\nwant:\n%s", code, stdout, want)
		}
		if !strings.Contains(stderr, "[table1] elapsed") || !strings.Contains(stderr, "1/1 done") {
			t.Errorf("progress and timing missing from stderr:\n%s", stderr)
		}
	})
	t.Run("paper claims", func(t *testing.T) {
		code, stdout, stderr := experimentsCLI("-quick", "-j", "1", "-only", "fig1top")
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		if tables := cutLedger(t, stdout, "fig1top"); !strings.HasPrefix(tables, "=== Fig 1 (top)") || strings.Contains(stdout, "disagrees") {
			t.Errorf("want the Fig 1 (top) table, then its claims with none disagreeing:\n%s", stdout)
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
		// panel, each headed and followed by a blank line, then fig7b's claims.
		code, stdout, stderr := experimentsCLI("-quick", "-only", "fig7b,fig7c", "-j", "1")
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		stdout = cutLedger(t, stdout, "fig7b")
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
	t.Run("every experiment fails cleanly at -timeout 1us", func(t *testing.T) {
		// 1us, not the 1ms a fresh process needs: warm, the quick Hilbert
		// study's one run takes under a millisecond and would succeed.
		base := runtime.NumGoroutine()
		for _, id := range experiments.SuiteIDs() {
			code, _, stderr := experimentsCLI("-quick", "-timeout", "1us", "-only", id)
			if code != 3 || !strings.Contains(stderr, "experiments: "+id+` failed: harness: spec "`) ||
				strings.Contains(stderr, "goroutine") {
				t.Errorf("%s: exit %d, stderr:\n%s\nwant exit 3, a failure line naming %s and a spec, no goroutine dump",
					id, code, stderr, id)
			}
		}
		// The timed-out runs unwind at their next interrupt poll; the rest
		// (placement and solver specs poll nothing) finish on their own.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Errorf("%d goroutines 5 s after the timed-out suite, %d before", n, base)
		}
	})
}

// TestSuiteRunsOnAfterFailure: an experiment whose runner fails gets one
// stderr line and no tables, the experiments around it still print theirs,
// and the suite exits 3.
func TestSuiteRunsOnAfterFailure(t *testing.T) {
	real, err := experiments.Select("table1,fig1top")
	if err != nil {
		t.Fatal(err)
	}
	fake := experiments.Experiment{ID: "fake", Title: "Fake", Run: func(experiments.Options) ([]experiments.NamedTable, error) {
		return nil, errors.New(`harness: spec "fake-run" exceeded 1ms timeout`)
	}}
	var stdout, stderr bytes.Buffer
	opts := experiments.Options{Quick: true, Seed: 42, Exec: harness.Exec{Workers: 1}}
	code := runSuite([]experiments.Experiment{real[0], fake, real[1]}, opts, &stdout, &stderr)
	for _, header := range []string{"=== Fig 1 (top): ", "=== Table I: ", "=== paper claims ==="} {
		if !strings.Contains(stdout.String(), header) {
			t.Errorf("stdout lacks %q:\n%s", header, stdout.String())
		}
	}
	var named []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.Contains(line, "fake") {
			named = append(named, line)
		}
	}
	want := []string{`experiments: fake failed: harness: spec "fake-run" exceeded 1ms timeout`}
	if code != 3 || !slices.Equal(named, want) || strings.Contains(stderr.String(), "goroutine") {
		t.Fatalf("exit %d, stderr lines naming fake %q, stderr:\n%s\nwant exit 3 and %q", code, named, stderr.String(), want)
	}
}

// TestOutIdenticalAcrossWorkers: the campaign telemetry of one quick
// campaign is the same run after run, and at -j 1 and -j 2, in every column
// the recorder declares sim-plane. A file read back is all-sim (the plane is
// not stored), so the recorder's own schema names the columns to compare.
func TestOutIdenticalAcrossWorkers(t *testing.T) {
	var sim []string
	for _, s := range harness.NewRecorder().Table().Sim().Schema() {
		sim = append(sim, s.Name)
	}
	read := func(workers string) *telemetry.Table {
		out := filepath.Join(t.TempDir(), "campaign.col")
		if code, _, stderr := experimentsCLI("-quick", "-j", workers, "-only", "fig1top", "-out", out); code != 0 {
			t.Fatalf("-j %s: exit %d, stderr:\n%s", workers, code, stderr)
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
		tab, err := r.Table()
		if err != nil {
			t.Fatal(err)
		}
		return tab.Select(sim...)
	}
	j1 := read("1")
	for _, again := range []struct{ what, workers string }{{"a second -j 1 run", "1"}, {"-j 2", "2"}} {
		if other := read(again.workers); j1.NumRows() != 3 || !telemetry.Equal(j1, other) {
			t.Fatalf("campaign telemetry differs between -j 1 and %s in %v:\n%s\n%s",
				again.what, sim, j1.Render(0), other.Render(0))
		}
	}
}
