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
	"SELECT wait, count(*) AS n, sum(compute) AS c FROM t GROUP BY wait ORDER BY wait",
	"SELECT policy, count(*) AS n, max(wait) AS hi, p50(compute) AS med FROM t WHERE step >= 2 GROUP BY policy",
	"SELECT step, rank, wait FROM t ORDER BY step DESC, rank LIMIT 3",
	"SELECT rank AS wait, wait AS rank FROM t ORDER BY wait LIMIT 9",
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

// fuzzCols names the columns of every fuzzed table, by position; the seed
// queries are written against them. Types are the fuzz input's to choose,
// so a seed's sum(wait) also meets a string wait and must fail at bind on
// every source alike.
var fuzzCols = []string{"step", "rank", "wait", "compute", "policy", "note"}

var fuzzStrs = []string{"lpt", "cdp", "cpl50", "", "a", "b"}

// fuzzShape derives FuzzQuery's table, chunk size and read path from fuzz
// input:
//
//	shape[0] & 0x7f % 9 rows per chunk (0: one chunk)
//	shape[0] & 0x80     set: the file is read through a plain io.ReaderAt
//	                    (bodies into the scan's buffer), else in place
//	shape[1] % 6 + 1    columns, named fuzzCols[:n]
//	next n bytes % 3    their types
//	the rest            cells in row order, one byte each, at most 64 rows
//
// An int cell is its byte as an int8; a float cell that over 4, a small
// dyadic rational, so every sum is exact and the footer's per-chunk partial
// sums fold to the same bits as a row-order sum; a string cell picks from
// fuzzStrs. Missing bytes read as zero.
func fuzzShape(shape []byte) (tb *telemetry.Table, chunk int, inPlace bool) {
	next := func() byte {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return b
	}
	b0 := next()
	chunk, inPlace = int(b0&0x7f%9), b0&0x80 == 0
	specs := make([]telemetry.ColSpec, next()%6+1)
	for i := range specs {
		specs[i] = telemetry.ColSpec{Name: fuzzCols[i], Type: telemetry.ColType(next() % 3)}
	}
	tb = telemetry.NewTable(specs...)
	vals := make([]interface{}, len(specs))
	for rows := 0; len(shape) > 0 && rows < 64; rows++ {
		for i, s := range specs {
			switch b := next(); s.Type {
			case telemetry.Int64:
				vals[i] = int64(int8(b))
			case telemetry.Float64:
				vals[i] = float64(int8(b)) / 4
			default:
				vals[i] = fuzzStrs[int(b)%len(fuzzStrs)]
			}
		}
		tb.Append(vals...)
	}
	return tb, chunk, inPlace
}

// fuzzShapes seed FuzzQuery's table dimension. The first is the five-row
// table every seed query was written against, in two-row chunks:
//
//	step rank wait compute policy
//	1    0    1.5  2.0     lpt
//	2    1    0.5  1.0     cdp
//	2    0    2.0  0.0     cdp
//	3    1    0.25 4.0     lpt
//	4    0    2.0  0.5     cpl50
var fuzzShapes = [][]byte{
	{2, 4, 0, 0, 1, 1, 2,
		1, 0, 6, 8, 0,
		2, 1, 2, 4, 1,
		2, 0, 8, 0, 1,
		3, 1, 1, 16, 0,
		4, 0, 8, 2, 2},
	{0, 4, 0, 0, 1, 1, 2}, // the same schema, no rows
	{1, 5, 0, 0, 2, 1, 2, 0, // wait is a string; one-row chunks; negative ints; "" and repeats
		0xff, 3, 3, 0xfc, 0, 5,
		0x80, 3, 4, 7, 3, 3,
		5, 0xfe, 3, 0, 1, 4},
	{3, 0, 1, 9, 9, 200, 9, 13}, // one float column
	{0x82, 4, 0, 0, 1, 1, 2, // the first shape, read through a plain io.ReaderAt
		1, 0, 6, 8, 0,
		2, 1, 2, 4, 1,
		2, 0, 8, 0, 1,
		3, 1, 1, 16, 0,
		4, 0, 8, 2, 2},
}

// TestFuzzShapeSeed pins the first seed shape to the table in its comment.
func TestFuzzShapeSeed(t *testing.T) {
	want := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.IntCol("rank"),
		telemetry.FloatCol("wait"), telemetry.FloatCol("compute"),
		telemetry.StrCol("policy"))
	want.Append(1, 0, 1.5, 2.0, "lpt")
	want.Append(2, 1, 0.5, 1.0, "cdp")
	want.Append(2, 0, 2.0, 0.0, "cdp")
	want.Append(3, 1, 0.25, 4.0, "lpt")
	want.Append(4, 0, 2.0, 0.5, "cpl50")
	if got, chunk, inPlace := fuzzShape(fuzzShapes[0]); chunk != 2 || !inPlace || !telemetry.Equal(got, want) {
		t.Fatalf("first seed shape is, in chunks of %d,\n%s", chunk, got.Render(0))
	}
}

// FuzzQuery is the differential fuzzer: the second input shapes a table, a
// chunk size and a read path (fuzzShape); anything that parses is bound
// against it; a bind error must be reported identically by both sources,
// and a query that binds must get the oracle's answer — the same table or
// the same division-by-zero error — from the in-memory source and from a
// file source in chunks of that size, read that way. Nothing may panic.
func FuzzQuery(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, fuzzShapes[0])
	}
	for _, shape := range fuzzShapes[1:] {
		for _, s := range fuzzSeeds[12:] {
			f.Add(s, shape)
		}
	}
	f.Fuzz(func(t *testing.T, src string, shape []byte) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		tb, chunk, inPlace := fuzzShape(shape)
		r := fileVia(t, tb, chunk, inPlace)
		mem, memErr := execTable(q, tb)
		file, _, fileErr := execute(q, r)
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
			t.Fatalf("%q over\n%smemory result differs\noracle:\n%sgot:\n%s", src, tb.Render(0), want.Render(0), mem.Render(0))
		}
		if !telemetry.Equal(want, file) {
			t.Fatalf("%q over\n%sin chunks of %d: file result differs\noracle:\n%sgot:\n%s", src, tb.Render(0), chunk, want.Render(0), file.Render(0))
		}
	})
}
