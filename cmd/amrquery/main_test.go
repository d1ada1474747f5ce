package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
)

// testFile writes a 40-row, step-sorted table as four 10-row chunks, so a
// range over step prunes whole chunks.
func testFile(t *testing.T) string {
	t.Helper()
	tb := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.IntCol("rank"),
		telemetry.FloatCol("wait"), telemetry.StrCol("policy"))
	policies := []string{"lpt", "cdp"}
	for i := 0; i < 40; i++ {
		tb.Append(i, i%4, float64(i)*0.5, policies[i%2])
	}
	path := filepath.Join(t.TempDir(), "t.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := colfile.WriteTable(f, tb, 10); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// amrquery runs the command in process and returns its exit status and
// the two output streams.
func amrquery(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// TestCLI pins exit code and output shape for every surface of the command.
func TestCLI(t *testing.T) {
	path := testFile(t)
	for _, tc := range []struct {
		name       string
		args       []string
		stdin      string
		code       int
		stdout     string   // exact, when non-empty
		outHas     []string // substrings of stdout
		outLacks   []string
		errHas     []string // substrings of stderr
		emptyStdio bool     // stdout must be empty
	}{
		{
			name: "schema", args: []string{"-file", path, "-schema"},
			stdout: path + ": 40 rows (format v2, 4 chunks)\n" +
				"  step             int64\n  rank             int64\n" +
				"  wait             float64\n  policy           string\n",
		},
		{
			name: "query", args: []string{"-file", path, "SELECT step, wait FROM t WHERE step >= 37 ORDER BY step"},
			stdout: "(pruned 3 chunks via embedded statistics)\n" +
				"step  wait\n----  ----\n37    18.5\n38    19  \n39    19.5\n",
		},
		{
			name: "rows cap", args: []string{"-file", path, "-rows", "2", "SELECT step FROM t"},
			stdout: "step\n----\n0   \n1   \n... (38 more rows)\n",
		},
		{
			name: "explain range", args: []string{"-file", path, "-explain", "SELECT wait FROM t WHERE step >= 10 AND step <= 19"},
			outHas:   []string{"explain: chunks: 1 scanned, 3 skipped (of 4); columns decoded: wait; rows matched: 10\n", "wait\n----\n5   \n"},
			outLacks: []string{"legacy", "fallback", "(pruned"},
		},
		{
			name: "explain metadata only", args: []string{"-file", path, "-explain", "SELECT count(*) AS n, max(wait) AS hi FROM t"},
			stdout: "explain: chunks: 0 scanned, 4 skipped (of 4); columns decoded: none; rows matched: 40; answered from footer metadata only\n" +
				"n   hi  \n--  ----\n40  19.5\n",
		},
		{
			name: "csv", args: []string{"-file", path, "-csv", "SELECT policy, count(*) AS n FROM t GROUP BY policy ORDER BY policy"},
			stdout: "policy,n\ncdp,20\nlpt,20\n",
		},
		{
			name: "bind error names the column", args: []string{"-file", path, "SELECT rank FROM t WHERE step > 100 AND bogus = 1"},
			code: 1, emptyStdio: true, errHas: []string{`amrquery: tql: unknown column "bogus"`},
		},
		{
			name: "type error", args: []string{"-file", path, "SELECT * FROM t WHERE wait = 'x'"},
			code: 1, emptyStdio: true, errHas: []string{"amrquery: tql: comparing number with string"},
		},
		{
			name: "duplicate output name", args: []string{"-file", path, "SELECT rank, rank FROM t"},
			code: 1, emptyStdio: true, errHas: []string{`amrquery: tql: duplicate output column "rank"`},
		},
		{
			name: "division by zero", args: []string{"-file", path, "SELECT * FROM t WHERE 1 / step > 0"},
			code: 1, emptyStdio: true, errHas: []string{"amrquery: tql: division by zero"},
		},
		{
			name: "parse error", args: []string{"-file", path, "SELECT FROM"},
			code: 1, emptyStdio: true, errHas: []string{"amrquery: tql:"},
		},
		{
			name: "missing -file", args: []string{"SELECT * FROM t"},
			code: 2, emptyStdio: true, errHas: []string{"amrquery: -file is required"},
		},
		{
			name: "unreadable file", args: []string{"-file", path + ".absent", "-schema"},
			code: 1, emptyStdio: true, errHas: []string{"amrquery: open "},
		},
		{
			name: "-prune is gone", args: []string{"-file", path, "-prune", "step=10:19", "SELECT * FROM t"},
			code: 2, emptyStdio: true, errHas: []string{"flag provided but not defined: -prune", "Usage of amrquery"},
		},
		{
			// A failing line — the duplicate name used to panic and end the
			// session — reports and the loop carries on.
			name: "interactive survives errors", args: []string{"-file", path},
			stdin:  "SELECT rank, rank FROM t\nSELECT count(*) AS n FROM t\nquit\n",
			outHas: []string{`amrquery: 40 rows in table "t"`, "tql> ", "n \n--\n40\n"},
			errHas: []string{`tql: duplicate output column "rank"`},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := amrquery(tc.stdin, tc.args...)
			if code != tc.code {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if tc.stdout != "" && stdout != tc.stdout {
				t.Errorf("stdout =\n%s\nwant\n%s", stdout, tc.stdout)
			}
			if tc.emptyStdio && stdout != "" {
				t.Errorf("stdout = %q, want none", stdout)
			}
			for _, s := range tc.outHas {
				if !strings.Contains(stdout, s) {
					t.Errorf("stdout lacks %q:\n%s", s, stdout)
				}
			}
			for _, s := range tc.outLacks {
				if strings.Contains(stdout, s) {
					t.Errorf("stdout has %q:\n%s", s, stdout)
				}
			}
			for _, s := range tc.errHas {
				if !strings.Contains(stderr, s) {
					t.Errorf("stderr lacks %q:\n%s", s, stderr)
				}
			}
			if tc.code == 0 && len(tc.errHas) == 0 && stderr != "" {
				t.Errorf("stderr = %q, want none", stderr)
			}
		})
	}
}

// TestFlagCount pins the flag surface: -prune's removal took it 6 → 5.
func TestFlagCount(t *testing.T) {
	_, _, usage := amrquery("", "-h")
	var flags []string
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	if got := strings.Join(flags, " "); got != "-csv -explain -file -rows -schema" {
		t.Fatalf("flags = %q", got)
	}
}
