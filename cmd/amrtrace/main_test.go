package main

// Round-trip acceptance for the trace toolchain: a traced driver run is
// written as a span colfile, read back, sliced with TQL, and exported as
// Chrome trace-event JSON — which must be valid JSON with exactly one
// timeline (thread_name metadata) row per rank in the slice.

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

func TestRoundTripColfileTQLPerfetto(t *testing.T) {
	cfg := driver.DefaultConfig([3]int{4, 4, 4}, 2, 10, placement.Baseline{}, 11)
	cfg.Net = simnet.Tuned(4, 16, 11)
	cfg.Trace = &trace.Config{PerRankCap: 8192}
	res, err := driver.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Write and re-read the span stream, as `experiments -trace` would.
	path := filepath.Join(t.TempDir(), "spans.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := colfile.WriteTable(f, res.Spans.Table(), 8192); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
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
	if table.NumRows() != res.Spans.Len() {
		t.Fatalf("colfile round trip lost rows: %d vs %d", table.NumRows(), res.Spans.Len())
	}

	// Slice the trace with TQL the way the README documents, then export.
	sliced, err := tql.Run("SELECT * FROM t WHERE step >= 2 AND rank < 8",
		map[string]*telemetry.Table{"t": table})
	if err != nil {
		t.Fatal(err)
	}
	if sliced.NumRows() == 0 {
		t.Fatal("TQL slice selected no spans")
	}
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, sliced); err != nil {
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
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
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

// untunedTrace writes the span file of a committed-seed run on the untuned
// fabric — missing-ACK recovery exposed, so send waits spike — the way
// `experiments -trace` would, and returns its path and span count.
func untunedTrace(t *testing.T) (string, int) {
	t.Helper()
	cfg := driver.DefaultConfig([3]int{4, 4, 4}, 2, 10, placement.Baseline{}, 11)
	cfg.Net = simnet.Untuned(4, 16, 11)
	cfg.Net.AckRecoveryDelay = 20e-3 // long enough to outlast the step's other waits
	cfg.Trace = &trace.Config{PerRankCap: 8192}
	res, err := driver.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.col")
	if err := colfile.WriteFile(path, res.Spans.Table(), 8192); err != nil {
		t.Fatal(err)
	}
	return path, res.Spans.Len()
}

// amrtrace runs the command in process and returns its exit status and
// the two output streams.
func amrtrace(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestCLI pins exit code and output for every surface of the command.
func TestCLI(t *testing.T) {
	path, spans := untunedTrace(t)
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
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string   // exact, unless outHas is set
		outHas []string // substrings of stdout
		errHas []string // substrings of stderr
	}{
		{
			name: "schema", args: []string{"-file", path, "-schema"},
			stdout: fmt.Sprintf("%s: %d spans\n", path, spans) +
				"  rank             int64\n  node             int64\n  kind             string\n" +
				"  t0               float64\n  t1               float64\n  dur              float64\n" +
				"  peer             int64\n  bytes            int64\n  tag              int64\n" +
				"  step             int64\n  epoch            int64\n",
		},
		{
			name: "tql", args: []string{"-file", path, "-tql", "SELECT kind, count(*) AS n FROM t GROUP BY kind ORDER BY kind"},
			stdout: "kind        n    \n----------  -----\n" +
				"ack_stall   225  \nbarrier     768  \ncompute     2600 \nirecv       41120\nisend       41120\n" +
				"nic_serial  11570\nprobe_post  4    \nprobe_pre   4    \nrebalance   64   \nrecv_wait   4509 \n" +
				"send_wait   32   \nshm_stall   29190\n",
		},
		{
			name: "tql rows cap", args: []string{"-file", path, "-rows", "1", "-tql", "SELECT rank, dur FROM t WHERE kind = 'send_wait' ORDER BY dur DESC LIMIT 3"},
			stdout: "rank  dur      \n----  ---------\n53    0.0235342\n... (2 more rows)\n",
		},
		{
			// The default mode: the detectors' report. The stretched ACK
			// recovery shows as send-wait spikes, the eight-slot shm queue
			// as saturation on every node.
			name: "detector report", args: []string{"-file", path, "-rows", "0"},
			outHas: []string{
				reportHead,
				"wait-spike      0     3     0           1          2       0.0192955   0          0           0            0                2 send-wait spikes on rank 3 (worst 19.3 ms): missing-ACK recovery signature",
				"shm-contention  3     -1    0           9          7355    44.5049     0          0           0            0                node 3 shm queue saturated: 7355 of 7435 local sends stalled (rate 0.99, 44.5 s total): undersized queue signature",
			},
		},
		{
			name: "no findings", args: []string{"-file", quiet},
			stdout: quiet + ": 2 spans, no findings (wait-spike, shm-contention and throttling detectors all clean)\n",
		},
		{
			name: "not a span file", args: []string{"-file", campaign},
			code: 1, errHas: []string{"amrtrace: " + campaign + ": ", `no column "kind"`},
		},
		{
			name: "perfetto", args: []string{"-file", path, "-tql", "SELECT * FROM t WHERE step = 2 AND rank < 4", "-perfetto", perfetto},
			errHas: []string{" spans -> " + perfetto},
		},
		{
			name: "bad query", args: []string{"-file", path, "-tql", "SELECT nope FROM t"},
			code: 1, errHas: []string{`amrtrace: tql: unknown column "nope"`},
		},
		{
			name: "missing -file", args: []string{"-schema"},
			code: 2, errHas: []string{"amrtrace: -file is required"},
		},
		{
			name: "unknown flag", args: []string{"-file", path, "-nosuch"},
			code: 2, errHas: []string{"flag provided but not defined: -nosuch", "Usage of amrtrace"},
		},
		{
			name: "missing file", args: []string{"-file", path + ".absent"},
			code: 1, errHas: []string{"amrtrace: open " + path + ".absent"},
		},
		{
			name: "corrupt file", args: []string{"-file", corrupt, "-schema"},
			code: 1, errHas: []string{"amrtrace: " + corrupt + ": colfile: bad magic"},
		},
		{
			name: "unwritable -perfetto", args: []string{"-file", path, "-perfetto", filepath.Join(path, "x.json")},
			code: 1, errHas: []string{"amrtrace: open "},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := amrtrace(tc.args...)
			if code != tc.code {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if tc.outHas == nil && stdout != tc.stdout {
				t.Errorf("stdout =\n%s\nwant\n%s", stdout, tc.stdout)
			}
			for _, s := range tc.outHas {
				if !strings.Contains(stdout, s) {
					t.Errorf("stdout lacks %q:\n%s", s, stdout)
				}
			}
			for _, s := range tc.errHas {
				if !strings.Contains(stderr, s) {
					t.Errorf("stderr lacks %q:\n%s", s, stderr)
				}
			}
			if tc.errHas == nil && stderr != "" {
				t.Errorf("stderr = %q, want none", stderr)
			}
		})
	}

	// The -perfetto case's file: Chrome trace-event JSON, one slice per
	// selected span.
	data, err := os.ReadFile(perfetto)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-perfetto output is not JSON: %v", err)
	}
	slices := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Fatal("-perfetto wrote no slices")
	}
}
