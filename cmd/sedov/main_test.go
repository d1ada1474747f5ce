package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"amrtools/internal/colfile"
)

// sedovCLI runs the command in process and returns its exit status and the
// two output streams.
func sedovCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// wallLine is the one wall-clock line of the report (the driver's measured
// placement cost): masked like experiments.NondetCols.
var wallLine = regexp.MustCompile(`worst [0-9.]+ ms`)

// TestCLI pins exit codes and the report's shape on the smallest Table I
// scale.
func TestCLI(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		errHas string
	}{
		{"unsupported rank count", []string{"-ranks", "7"}, "unsupported rank count 7 (want 512, 1024, 2048, or 4096)"},
		{"unknown policy", []string{"-policy", "nosuch"}, "nosuch"},
		{"unknown flag", []string{"-nosuchflag"}, "nosuchflag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := sedovCLI(tc.args...)
			if code != 2 || stdout != "" || !strings.Contains(stderr, tc.errHas) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 mentioning %q", code, stdout, stderr, tc.errHas)
			}
		})
	}
	t.Run("report and -out", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "steps.col")
		code, stdout, stderr := sedovCLI("-ranks", "512", "-policy", "cpl50", "-steps", "6", "-out", out)
		if code != 0 || stderr != "" {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
		want := "sedov blast wave 3d: 512 ranks (128^3 cells, 16^3 blocks), 6 steps, policy cpl50\n" +
			"  simulated runtime: 0.159 s\n" +
			"  phases (mean/rank): compute 0.047 s (30%), comm 0.005 s (3%), sync 0.105 s (66%), rebalance 0.002 s (2%)\n" +
			"  blocks: 512 -> 1688 (1 load-balancing invocations, 1677 migrations)\n" +
			"  messages: 90708 MPI (32169 local, 58539 remote, 65% remote), 1884 intra-rank memcpy\n" +
			"  fabric: 0 ACK stalls, 124 drained, 0 shm contentions\n" +
			"  placement compute (wall): worst * ms over 1 invocations (budget 50 ms)\n" +
			"  telemetry: 3072 rows -> " + out + " (query with amrquery)\n"
		if got := wallLine.ReplaceAllString(stdout, "worst * ms"); got != want {
			t.Fatalf("stdout:\n%s\nwant:\n%s", got, want)
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
		if r.NumRows() != 6*512 || r.ColIndex("msgs_recvd") < 0 {
			t.Fatalf("telemetry colfile has %d rows, msgs_recvd at %d; want one row per rank per step", r.NumRows(), r.ColIndex("msgs_recvd"))
		}
	})
}
