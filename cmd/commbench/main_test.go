package main

import (
	"bytes"
	"strings"
	"testing"
)

// commbenchCLI runs the command in process and returns its exit status and
// the two output streams.
func commbenchCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestCLI pins exit codes and output: a bad flag exits 2, a configuration
// the benchmark rejects exits 1 naming the culprit, and a small run prints
// exactly the table the sequential engine produces.
func TestCLI(t *testing.T) {
	t.Run("unknown flag", func(t *testing.T) {
		code, stdout, stderr := commbenchCLI("-nosuchflag")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "nosuchflag") {
			t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming the flag", code, stdout, stderr)
		}
	})
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"rank count not a power of two", []string{"-ranks", "100"}, "rank count 100"},
		{"unknown policy", []string{"-policies", "cpl50,nosuch"}, `"nosuch"`},
		{"too few rounds", []string{"-ranks", "64", "-rounds", "1"}, ">=2 rounds"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := commbenchCLI(c.args...)
			if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "commbench: ") || !strings.Contains(stderr, c.want) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 mentioning %s", code, stdout, stderr, c.want)
			}
		})
	}
	t.Run("small run", func(t *testing.T) {
		code, stdout, stderr := commbenchCLI("-ranks", "64", "-meshes", "1", "-rounds", "3", "-j", "1")
		want := "commbench: 64 ranks, 1 meshes x 3 rounds per policy\n" +
			"ranks  policy  mean_round_ms  p99_round_ms  remote_share\n" +
			"-----  ------  -------------  ------------  ------------\n" +
			"64     cpl0    0.565096       0.565096      0.377844    \n" +
			"64     cpl25   0.816648       0.816648      0.495249    \n" +
			"64     cpl50   1.06669        1.06669       0.644536    \n" +
			"64     cpl75   1.16323        1.16323       0.717723    \n" +
			"64     cpl100  1.10561        1.10561       0.717949    \n"
		if code != 0 || stdout != want || stderr != "" {
			t.Fatalf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, stderr, stdout, want)
		}
	})
}
