package tql

import (
	"testing"

	"amrtools/internal/telemetry"
)

// fuzzSeeds are shared by both fuzzers. The first twelve are FuzzParse's
// historical corpus (their order is its seed numbering); the rest seed
// FuzzQuery with the shapes bind exists to reject or must not trip over.
var fuzzSeeds = []string{
	"SELECT * FROM t",
	"SELECT rank, sum(wait) AS total FROM t WHERE step >= 10 GROUP BY rank ORDER BY total DESC LIMIT 5",
	"select a from t where (x = 'y''z' or not b < 3.5e2) and c != 1",
	"SELECT p99(wait), count(*) FROM t",
	"SELECT * FROM t WHERE wait > 2 * (compute - 1) / 3",
	"",
	"SELECT",
	"((((",
	"'unterminated",
	"SELECT * FROM t WHERE ~",
	"select select from from",
	"SELECT * FROM t LIMIT 99999999999999999999",

	"SELECT rank, rank FROM t",
	"SELECT rank AS a, wait AS a FROM t",
	"SELECT sum(wait) AS rank, rank FROM t GROUP BY rank",
	"SELECT rank AS a, rank AS b FROM t",
	"SELECT sum(wait) AS rank FROM t GROUP BY rank, rank",
	"SELECT * FROM t WHERE step > 100 AND bogus = 1",
	"SELECT rank FROM t WHERE step >= 0 OR wait = 'x'",
	"SELECT count(policy), count(nope) FROM t",
	"SELECT count(*) FROM t WHERE wait / (step - 2) > 0",
	"SELECT nope FROM t WHERE 1 / (wait - 2) > 0",
	"SELECT policy, min(wait), max(compute), avg(wait) FROM t WHERE policy >= 'cdp' AND NOT step = 3 GROUP BY policy ORDER BY policy",
	"SELECT min(wait), max(wait), sum(compute), count(*) FROM t WHERE step >= 2",
	"SELECT step FROM t WHERE -wait < -(compute / 2) OR 'a' < 'b' ORDER BY step DESC LIMIT 2",
}

// FuzzParse asserts the parser never panics: malformed queries must return
// errors. `go test` exercises the seed corpus; `go test -fuzz=FuzzParse`
// explores further. FuzzQuery takes everything that parses from there.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds[:12] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src)
	})
}

// fuzzTable is the table FuzzQuery runs over. The floats are small dyadic
// rationals so every sum is exact and the footer's per-chunk partial sums
// fold to the same bits as a row-order sum.
func fuzzTable() *telemetry.Table {
	tb := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.IntCol("rank"),
		telemetry.FloatCol("wait"), telemetry.FloatCol("compute"),
		telemetry.StrCol("policy"))
	tb.Append(1, 0, 1.5, 2.0, "lpt")
	tb.Append(2, 1, 0.5, 1.0, "cdp")
	tb.Append(2, 0, 2.0, 0.0, "cdp")
	tb.Append(3, 1, 0.25, 4.0, "lpt")
	tb.Append(4, 0, 2.0, 0.5, "cpl50")
	return tb
}

// FuzzQuery is the differential fuzzer: anything that parses is bound; a
// bind error must be reported identically by both sources, and a query
// that binds must get the oracle's answer — the same table or the same
// division-by-zero error — from the in-memory source and from a file
// source with two-row chunks. Nothing may panic.
func FuzzQuery(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	tb := fuzzTable()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		r := fileFor(t, tb, 2)
		mem, memErr := Exec(q, tb)
		file, fileErr := ExecFile(q, r)
		if _, bindErr := bind(q, tb.Schema()); bindErr != nil {
			if memErr == nil || fileErr == nil || memErr.Error() != bindErr.Error() || fileErr.Error() != bindErr.Error() {
				t.Fatalf("%q: bind error %v, but memory err = %v, file err = %v", src, bindErr, memErr, fileErr)
			}
			if r.DecodeCount() != 0 {
				t.Fatalf("%q: bind error after %d chunk decodes", src, r.DecodeCount())
			}
			return
		}
		want, wantErr := oracleExec(q, tb)
		if wantErr != nil {
			if wantErr.Error() != errDivZero.Error() {
				t.Fatalf("%q binds, but the oracle failed with %v", src, wantErr)
			}
			if memErr == nil || fileErr == nil || memErr.Error() != wantErr.Error() || fileErr.Error() != wantErr.Error() {
				t.Fatalf("%q: oracle err %v, memory err = %v, file err = %v", src, wantErr, memErr, fileErr)
			}
			return
		}
		if memErr != nil || fileErr != nil {
			t.Fatalf("%q: oracle succeeded, memory err = %v, file err = %v", src, memErr, fileErr)
		}
		if !telemetry.Equal(want, mem) {
			t.Fatalf("%q: memory result differs\noracle:\n%sgot:\n%s", src, want.Render(0), mem.Render(0))
		}
		if !telemetry.Equal(want, file) {
			t.Fatalf("%q: file result differs\noracle:\n%sgot:\n%s", src, want.Render(0), file.Render(0))
		}
	})
}
