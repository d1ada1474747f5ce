package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/driver"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
	"amrtools/internal/trace"
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

// spanFile runs cfg with tracing on and writes its spans the way
// `experiments -trace` does (Recorder.WriteTo, 8192-row chunks), returning
// the file's path and the span count.
func spanFile(t *testing.T, cfg driver.Config) (string, int) {
	t.Helper()
	cfg.Trace = &trace.Config{PerRankCap: 8192}
	res, err := driver.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Spans.WriteTo(f, 8192); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, res.Spans.Len()
}

// untunedTrace is the span file of a committed-seed run on the untuned
// fabric: missing-ACK recovery exposed, so send waits spike.
func untunedTrace(t *testing.T) (string, int) {
	cfg := driver.DefaultConfig([3]int{4, 4, 4}, 2, 10, placement.Baseline{}, 11)
	cfg.Net = simnet.Untuned(4, 16, 11)
	cfg.Net.AckRecoveryDelay = 20e-3 // long enough to outlast the step's other waits
	return spanFile(t, cfg)
}

// amrquery runs the command in process and returns its exit status and
// the two output streams.
func amrquery(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// cliCase is one invocation of the command and what it must produce.
type cliCase struct {
	name       string
	args       []string
	stdin      string
	code       int
	stdout     string   // exact, when non-empty
	outHas     []string // substrings of stdout
	outLacks   []string
	errHas     []string // substrings of stderr
	emptyStdio bool     // stdout must be empty
}

// runCLICases runs each case as a subtest and checks exit code and output.
func runCLICases(t *testing.T, cases []cliCase) {
	t.Helper()
	for _, tc := range cases {
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

// TestCLI pins exit code and output shape for every surface of the command
// on a plain table; TestSpanCLI covers span files and the span modes.
func TestCLI(t *testing.T) {
	path := testFile(t)
	runCLICases(t, []cliCase{
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
	})
}

// TestSpanCLI pins exit code and output shape for span files, as
// `experiments -trace dir/` writes them, and for the span modes -diagnose
// and -perfetto.
func TestSpanCLI(t *testing.T) {
	spans, nSpans := untunedTrace(t)
	corrupt := filepath.Join(t.TempDir(), "corrupt.col")
	if err := os.WriteFile(corrupt, []byte("not a colfile"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A colfile that is not a span stream, shaped like the campaign.col
	// `experiments -trace dir/` writes beside the span files, and a span
	// stream too short to show anything.
	campaign := filepath.Join(t.TempDir(), "campaign.col")
	ct := telemetry.NewTable(telemetry.StrCol("spec"), telemetry.FloatCol("wall_ms"), telemetry.IntCol("events"))
	ct.Append("fig6/baseline", 12.5, 1000)
	if err := colfile.WriteFile(campaign, ct, 8192); err != nil {
		t.Fatal(err)
	}
	quiet := filepath.Join(t.TempDir(), "quiet.col")
	qt := telemetry.NewTable(trace.Schema()...)
	qt.Append(0, 0, "compute", 0.0, 1e-3, 1e-3, -1, 0, 0, 0, 0)
	qt.Append(1, 0, "compute", 0.0, 1e-3, 1e-3, -1, 0, 0, 0, 0)
	if err := colfile.WriteFile(quiet, qt, 1); err != nil {
		t.Fatal(err)
	}
	perfetto := filepath.Join(t.TempDir(), "out.json")
	const reportHead = "detector        node  rank  first_step  last_step  events  severity    probe_pre  probe_post  probe_drift  probe_confirmed  detail"
	runCLICases(t, []cliCase{
		{
			name: "unknown flag", args: []string{"-file", spans, "-nosuch"},
			code: 2, emptyStdio: true, errHas: []string{"flag provided but not defined: -nosuch", "Usage of amrquery"},
		},
		{
			name: "missing -file with -schema", args: []string{"-schema"},
			code: 2, emptyStdio: true, errHas: []string{"amrquery: -file is required"},
		},
		{
			name: "missing file", args: []string{"-file", spans + ".absent"},
			code: 1, emptyStdio: true, errHas: []string{"amrquery: open " + spans + ".absent"},
		},
		{
			name: "corrupt file", args: []string{"-file", corrupt, "-schema"},
			code: 1, emptyStdio: true, errHas: []string{"amrquery: " + corrupt + ": colfile: bad magic"},
		},
		{
			name: "span schema", args: []string{"-file", spans, "-schema"},
			stdout: fmt.Sprintf("%s: %d rows (format v2, 17 chunks)\n", spans, nSpans) +
				"  rank             int64\n  node             int64\n  kind             string\n" +
				"  t0               float64\n  t1               float64\n  dur              float64\n" +
				"  peer             int64\n  bytes            int64\n  tag              int64\n" +
				"  step             int64\n  epoch            int64\n",
		},
		{
			name: "span query", args: []string{"-file", spans, "SELECT kind, count(*) AS n FROM t GROUP BY kind ORDER BY kind"},
			stdout: "kind        n    \n----------  -----\n" +
				"ack_stall   225  \nbarrier     768  \ncompute     2600 \nirecv       41120\nisend       41120\n" +
				"nic_serial  11570\nprobe_post  4    \nprobe_pre   4    \nrebalance   64   \nrecv_wait   4509 \n" +
				"send_wait   32   \nshm_stall   29190\n",
		},
		{
			name: "span query rows cap", args: []string{"-file", spans, "-rows", "1", "SELECT rank, dur FROM t WHERE kind = 'send_wait' ORDER BY dur DESC LIMIT 3"},
			stdout: "rank  dur      \n----  ---------\n53    0.0235342\n... (2 more rows)\n",
		},
		{
			name: "span query bad column", args: []string{"-file", spans, "SELECT nope FROM t"},
			code: 1, emptyStdio: true, errHas: []string{`amrquery: tql: unknown column "nope"`},
		},
		{
			// The detectors' report. The stretched ACK recovery shows as
			// send-wait spikes, the eight-slot shm queue as saturation on
			// every node.
			name: "diagnose report", args: []string{"-file", spans, "-diagnose", "-rows", "0"},
			outHas: []string{
				reportHead,
				"wait-spike      0     3     0           1          2       0.0192955   0          0           0            0                2 send-wait spikes on rank 3 (worst 19.3 ms): missing-ACK recovery signature",
				"shm-contention  3     -1    0           9          7355    44.5049     0          0           0            0                node 3 shm queue saturated: 7355 of 7435 local sends stalled (rate 0.99, 44.5 s total): undersized queue signature",
			},
		},
		{
			name: "diagnose no findings", args: []string{"-file", quiet, "-diagnose"},
			stdout: quiet + ": 2 spans, no findings (wait-spike, shm-contention and throttling detectors all clean)\n",
		},
		{
			name: "diagnose not a span file", args: []string{"-file", campaign, "-diagnose"},
			code: 1, emptyStdio: true, errHas: []string{"amrquery: " + campaign + ": ", `not a span stream: no column "kind"`},
		},
		{
			name: "diagnose with a query", args: []string{"-file", spans, "-diagnose", "SELECT * FROM t"},
			code: 2, emptyStdio: true, errHas: []string{"amrquery: -diagnose takes no query, -csv, -explain or -perfetto"},
		},
		{
			name: "diagnose with -csv", args: []string{"-file", spans, "-diagnose", "-csv"},
			code: 2, emptyStdio: true, errHas: []string{"amrquery: -diagnose takes no query"},
		},
		{
			name: "diagnose with -explain", args: []string{"-file", spans, "-diagnose", "-explain"},
			code: 2, emptyStdio: true, errHas: []string{"amrquery: -diagnose takes no query"},
		},
		{
			name: "perfetto", args: []string{"-file", spans, "-perfetto", perfetto, "SELECT * FROM t WHERE step = 2 AND rank < 4"},
			emptyStdio: true, errHas: []string{"amrquery: 160 spans -> " + perfetto + "\n"},
		},
		{
			name: "perfetto with -csv", args: []string{"-file", spans, "-csv", "-perfetto", perfetto},
			code: 2, emptyStdio: true, errHas: []string{"amrquery: -csv and -perfetto both choose where the result goes"},
		},
		{
			name: "unwritable -perfetto", args: []string{"-file", spans, "-perfetto", filepath.Join(spans, "x.json")},
			code: 1, emptyStdio: true, errHas: []string{"amrquery: open "},
		},
	})
}

// TestFlagCount pins the flag surface: -prune's removal took it 6 → 5, and
// the span modes -diagnose and -perfetto, folded in from the separate span
// command, took it to 7.
func TestFlagCount(t *testing.T) {
	_, _, usage := amrquery("", "-h")
	var flags []string
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	if got := strings.Join(flags, " "); got != "-csv -diagnose -explain -file -perfetto -rows -schema" {
		t.Fatalf("flags = %q", got)
	}
}

// TestRoundTripColfileTQLPerfetto is the acceptance path of the span
// toolchain: a traced driver run is written as a span colfile, read back,
// sliced with a query and exported as Chrome trace-event JSON — valid JSON
// with one slice per selected span and exactly one timeline (thread_name
// metadata) row per rank in the slice. With no query the export is the
// whole file, byte for byte what trace.WritePerfetto makes of its table.
func TestRoundTripColfileTQLPerfetto(t *testing.T) {
	cfg := driver.DefaultConfig([3]int{4, 4, 4}, 2, 10, placement.Baseline{}, 11)
	cfg.Net = simnet.Tuned(4, 16, 11)
	path, n := spanFile(t, cfg)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := colfile.OpenFile(f)
	if err != nil {
		t.Fatal(err)
	}
	table, err := r.Table()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if table.NumRows() != n {
		t.Fatalf("colfile round trip lost rows: %d vs %d", table.NumRows(), n)
	}

	// The whole file.
	whole := filepath.Join(t.TempDir(), "whole.json")
	if code, _, stderr := amrquery("", "-file", path, "-perfetto", whole); code != 0 {
		t.Fatalf("whole-file export: exit %d: %s", code, stderr)
	}
	var want bytes.Buffer
	if err := trace.WritePerfetto(&want, table); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(whole); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("whole-file export differs from WritePerfetto of the table (err %v)", err)
	}

	// A slice, the way the README documents; the in-memory query over the
	// read-back table is the expected selection.
	const query = "SELECT * FROM t WHERE step >= 2 AND rank < 8"
	sliced, err := tql.Run(query, map[string]*telemetry.Table{"t": table})
	if err != nil {
		t.Fatal(err)
	}
	if sliced.NumRows() == 0 {
		t.Fatal("TQL slice selected no spans")
	}
	out := filepath.Join(t.TempDir(), "slice.json")
	if code, _, stderr := amrquery("", "-file", path, "-perfetto", out, query); code != 0 {
		t.Fatalf("sliced export: exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Tid  int64   `json:"tid"`
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("Perfetto export is not valid JSON: %v", err)
	}

	wantRanks := map[int64]bool{}
	for _, r := range sliced.Ints("rank") {
		wantRanks[r] = true
	}
	gotThreads := map[int64]int{}
	slices := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %q", ev.Name)
			}
			gotThreads[ev.Tid]++
		case "X":
			slices++
			if ev.Dur <= 0 {
				t.Fatalf("slice %q has non-positive dur %g", ev.Name, ev.Dur)
			}
			if !wantRanks[ev.Tid] {
				t.Fatalf("slice on tid %d, not a rank in the TQL slice", ev.Tid)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if slices != sliced.NumRows() {
		t.Fatalf("exported %d slices for %d spans", slices, sliced.NumRows())
	}
	if len(gotThreads) != len(wantRanks) {
		t.Fatalf("%d timeline rows for %d ranks", len(gotThreads), len(wantRanks))
	}
	for tid, n := range gotThreads {
		if !wantRanks[tid] {
			t.Fatalf("timeline row for tid %d, not a rank in the slice", tid)
		}
		if n != 1 {
			t.Fatalf("rank %d has %d timeline rows, want exactly 1", tid, n)
		}
	}
}
