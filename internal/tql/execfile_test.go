package tql

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
)

// TestWhereErrorSurfaced is the regression test for the error-swallowing
// Filter bug: rows whose WHERE evaluation errors were silently dropped
// instead of failing the query. Row 0 evaluates cleanly (so the old row-0
// probe did not catch it); row 1 (wait = 2) divides by zero.
func TestWhereErrorSurfaced(t *testing.T) {
	_, err := Run("SELECT * FROM t WHERE 1 / (wait - 2) > 0",
		map[string]*telemetry.Table{"t": testTable()})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
}

// TestWhereErrorShortCircuitStillSafe pins the other half of the contract:
// a fallible subexpression guarded by short-circuit evaluation must NOT
// error when the guard rules out the poisonous rows.
func TestWhereErrorShortCircuitStillSafe(t *testing.T) {
	out, err := Run("SELECT * FROM t WHERE wait != 2 AND 1 / (wait - 2) > 0",
		map[string]*telemetry.Table{"t": testTable()})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4 { // wait > 2: 4, 8, 16, 32
		t.Fatalf("rows = %d, want 4", out.NumRows())
	}
}

// corpusQuery is one differential-corpus entry. A query that must be
// rejected at bind carries the exact error text; every other query binds,
// and the oracle says what it must return.
type corpusQuery struct{ src, bindErr string }

// differentialQueries is the full corpus: both sources must answer every
// entry exactly as the oracle does (result table or division-by-zero
// error), or reject it at bind with the recorded text.
var differentialQueries = []corpusQuery{
	{src: "SELECT * FROM t"},
	{src: "select rank, wait from t"},
	{src: "SELECT * FROM t WHERE step >= 1 AND wait < 20"},
	{src: "SELECT * FROM t WHERE policy = 'lpt'"},
	{src: "SELECT * FROM t WHERE policy != 'lpt'"},
	{src: "SELECT * FROM t WHERE (step = 0 OR step = 2) AND NOT policy = 'cdp'"},
	{src: "SELECT policy, sum(wait) AS total FROM t GROUP BY policy ORDER BY total DESC"},
	{src: "SELECT count(*) AS n, mean(wait) AS m, max(wait) FROM t"},
	{src: "SELECT rank, policy, sum(wait) AS s FROM t GROUP BY rank, policy ORDER BY s DESC LIMIT 2"},
	{src: "SELECT * FROM t ORDER BY rank ASC, wait DESC"},
	{src: "SELECT * FROM t LIMIT 0"},
	{"SELECT nope FROM t", `tql: unknown column "nope"`},
	{"SELECT rank FROM t WHERE bogus = 1", `tql: unknown column "bogus"`},
	{"SELECT rank, sum(wait) FROM t", `tql: column "rank" must appear in GROUP BY`},
	{"SELECT sum(policy) FROM t", `tql: aggregate over string column "policy"`},
	{"SELECT * FROM t GROUP BY rank", `tql: SELECT * with GROUP BY`},
	{"SELECT * FROM t WHERE wait = 'x'", `tql: comparing number with string`},
	{src: "sElEcT RANK, SUM(WAIT) as S frOm t GrOuP bY rank"},
	{src: "SELECT * FROM t WHERE wait >= 1.5e1"},
	{src: "SELECT * FROM t WHERE wait < .5"},
	{src: "SELECT * FROM t WHERE step = 1"},
	{src: "SELECT p99(wait), count(*) FROM t"},
	{src: "SELECT policy, mean(wait) FROM t GROUP BY policy"},
	{src: "SELECT * FROM t WHERE wait = 4"},
	{src: "SELECT * FROM t WHERE wait <> 4"},
	{src: "SELECT * FROM t WHERE wait < 4"},
	{src: "SELECT * FROM t WHERE wait <= 4"},
	{src: "SELECT * FROM t WHERE wait > 4"},
	{src: "SELECT * FROM t WHERE wait >= 4"},
	{src: "SELECT * FROM t WHERE policy < 'lpt'"},
	{src: "SELECT * FROM t WHERE policy <= 'lpt'"},
	{src: "SELECT * FROM t WHERE policy > 'cdp'"},
	{src: "SELECT * FROM t WHERE policy >= 'cdp'"},
	{src: "SELECT rank AS r, wait AS w FROM t LIMIT 1"},
	{src: "SELECT policy AS p, count(*) AS n FROM t GROUP BY policy"},
	{src: "SELECT * FROM t WHERE wait > 2 * 4"},
	{src: "SELECT * FROM t WHERE wait >= 2 + 6"},
	{src: "SELECT * FROM t WHERE wait < 32 / 2"},
	{src: "SELECT * FROM t WHERE wait - 1 = 0"},
	{src: "SELECT * FROM t WHERE -wait < 0"},
	{src: "SELECT * FROM t WHERE wait * 2 > wait + 1"},
	{src: "SELECT * FROM t WHERE (wait + 1) * 2 >= 10"},
	{src: "SELECT * FROM t WHERE wait > step * 10"},
	{src: "SELECT * FROM t WHERE wait / 0 > 1"},
	{"SELECT * FROM t WHERE policy + 1 > 0", `tql: expected number, got string`},
	{src: "SELECT * FROM t WHERE 1 / (wait - 2) > 0"},
	{src: "SELECT * FROM t WHERE wait != 2 AND 1 / (wait - 2) > 0"},
	{src: "SELECT * FROM t WHERE wait = 2 OR 1 / (wait - 2) > 0"},
	{src: "SELECT * FROM t WHERE 1 / (wait - 2) > 0 AND step > 100"},
	{src: "SELECT * FROM t WHERE step > 100 AND 1 / (wait - 2) > 0"},
	{src: "SELECT count(*) AS n, sum(wait), min(wait), max(wait), mean(wait) FROM t"},
	{src: "SELECT min(step), max(rank) FROM t WHERE step >= 0"},
	{src: "SELECT sum(wait) FROM t WHERE step > 100"},
	{src: "SELECT sum(step) AS s FROM t WHERE step >= 1"},
	{src: "SELECT policy, mean(wait) AS mw FROM t WHERE step >= 1 GROUP BY policy ORDER BY mw"},
	{src: "SELECT rank FROM t WHERE step = 1"},
	{src: "SELECT wait FROM t ORDER BY wait DESC LIMIT 3"},
	{src: "SELECT * FROM t WHERE step != 1"},
	{src: "SELECT * FROM t WHERE 1 = 1"},
	{src: "SELECT * FROM t WHERE 'a' = 'b'"},
	{src: "SELECT * FROM t WHERE policy = policy"},
	{src: "SELECT * FROM t WHERE 'lpt' = policy"},
	{src: "SELECT * FROM t WHERE NOT (step = 1 OR wait > 10)"},
	{src: "SELECT var(wait), std(wait) FROM t WHERE step <= 1"},

	// Bind errors do not depend on which rows evaluation reaches: a typo
	// guarded by AND/OR (or on an empty table) is rejected, not a silent
	// empty result.
	{"SELECT * FROM t WHERE step > 100 AND bogus = 1", `tql: unknown column "bogus"`},
	{"SELECT * FROM t WHERE step >= 0 OR bogus = 1", `tql: unknown column "bogus"`},
	{"SELECT * FROM t WHERE step > 100 AND wait = 'x'", `tql: comparing number with string`},
	{"SELECT * FROM t WHERE 'x' < wait", `tql: comparing string with number`},
	{"SELECT * FROM t WHERE wait", `tql: expected boolean, got number`},
	{"SELECT * FROM t WHERE NOT policy", `tql: expected boolean, got string`},
	{"SELECT * FROM t WHERE (wait > 1) + 1 > 0", `tql: expected number, got boolean`},
	{"SELECT * FROM t WHERE (wait > 1) = (step > 1)", `tql: cannot compare boolean`},
	{"SELECT * FROM t WHERE -policy < 0", `tql: expected number, got string`},
	// Bind errors win over runtime errors.
	{"SELECT nope FROM t WHERE 1 / (wait - 2) > 0", `tql: unknown column "nope"`},
	{"SELECT * FROM t WHERE 1 / (wait - 2) > 0 AND bogus = 1", `tql: unknown column "bogus"`},
	// count(col) checks its column like every other aggregate, also when
	// the footer could answer without looking.
	{"SELECT count(nope) FROM t", `tql: unknown column "nope"`},
	{"SELECT count(policy) FROM t", `tql: aggregate over string column "policy"`},
	{src: "SELECT count(wait) FROM t"},
	{src: "SELECT count(wait) AS n FROM t WHERE step >= 1"},
	// Duplicate output names are an error naming the column, not a panic.
	{"SELECT rank, rank FROM t", `tql: duplicate output column "rank"`},
	{"SELECT rank AS a, wait AS a FROM t", `tql: duplicate output column "a"`},
	{"SELECT sum(wait) AS rank, rank FROM t GROUP BY rank", `tql: duplicate output column "rank"`},
	{"SELECT count(*), count(*) FROM t", `tql: duplicate output column "count"`},
	// The same column twice under distinct names, an alias shadowing a
	// key, and a repeated key are all legal.
	{src: "SELECT rank AS a, rank AS b FROM t"},
	{src: "SELECT rank AS r, sum(wait) AS rank FROM t GROUP BY rank"},
	{src: "SELECT sum(wait) AS rank FROM t GROUP BY rank"},
	{src: "SELECT rank, count(*) AS n FROM t GROUP BY rank, rank"},
	// The remaining legality checks, each once.
	{"SELECT mean(*) FROM t", `tql: mean(*) is only valid for count`},
	{"SELECT rank FROM t GROUP BY nope", `tql: GROUP BY unknown column "nope"`},
	{"SELECT rank FROM t ORDER BY wait", `tql: ORDER BY unknown column "wait"`},
	{"SELECT sum(wait) AS s FROM t GROUP BY rank ORDER BY rank", `tql: ORDER BY unknown column "rank"`},
	{src: "SELECT count(*) AS n FROM t WHERE wait > 2"},
	{src: "SELECT * FROM t WHERE wait >= 2 AND wait <= 8"},
	{src: "SELECT * FROM t WHERE 4 > wait"},
	{src: "SELECT * FROM t WHERE wait / -2 < -1"},

	// The post-WHERE sinks. At chunk sizes 1 and 2 every tie below has its
	// rows in different chunks: they must come out in file row order, as the
	// stable sort of the whole table leaves them.
	{src: "SELECT step, rank, wait FROM t ORDER BY rank LIMIT 4"},
	{src: "SELECT * FROM t ORDER BY policy DESC, rank LIMIT 5"},
	{src: "SELECT step, wait FROM t WHERE wait > 1 ORDER BY step DESC LIMIT 3"},
	{src: "SELECT policy FROM t WHERE step >= 1 ORDER BY policy LIMIT 2"},
	{src: "SELECT * FROM t ORDER BY rank LIMIT 100"}, // more than the table holds
	{src: "SELECT * FROM t ORDER BY step DESC LIMIT 0"},
	{src: "SELECT rank AS r, wait AS w FROM t ORDER BY r DESC, w LIMIT 2"},
	{src: "SELECT wait AS rank, rank AS wait FROM t ORDER BY wait, rank DESC LIMIT 3"}, // ORDER BY names outputs, not sources
	{src: "SELECT rank FROM t ORDER BY rank, rank DESC LIMIT 4"},
	{src: "SELECT policy, count(*) AS n, sum(wait) AS s, min(wait) AS lo, max(wait) AS hi, p50(wait) AS med, std(wait) AS sd FROM t GROUP BY policy ORDER BY policy"},
	{src: "SELECT rank, step, count(*) AS n FROM t WHERE wait >= 2 GROUP BY rank, step ORDER BY n DESC, rank LIMIT 10"},
	{src: "SELECT wait, count(*) AS n FROM t GROUP BY wait"},
	{src: "SELECT step, var(wait) AS v, p99(rank) AS r FROM t GROUP BY step ORDER BY v DESC LIMIT 2"},
	{src: "SELECT policy, rank, mean(step) AS m FROM t GROUP BY policy, rank ORDER BY m, policy DESC LIMIT 3"},
	{src: "SELECT count(*) AS n FROM t WHERE policy = 'cdp' ORDER BY n LIMIT 7"},
}

// corpusReaders encodes src at the corpus chunk sizes, read in place, and at
// one of them behind a plain io.ReaderAt.
func corpusReaders(t *testing.T, src *telemetry.Table) map[string]*colfile.Reader {
	t.Helper()
	readers := map[string]*colfile.Reader{}
	for _, chunkRows := range []int{0, 1, 2, 4} {
		readers[fmt.Sprintf("file chunk=%d", chunkRows)] = fileFor(t, src, chunkRows)
	}
	readers["ReaderAt file chunk=2"] = fileVia(t, src, 2, false)
	return readers
}

// runDifferential runs the whole corpus over src in memory and over every
// reader (each of which must hold src's rows): a query that binds must
// match the oracle — same table, or the same error — on every source, and a
// query that does not must fail everywhere with its recorded text.
func runDifferential(t *testing.T, label string, src *telemetry.Table, readers map[string]*colfile.Reader) {
	t.Helper()
	for _, cq := range differentialQueries {
		q, err := Parse(cq.src)
		if err != nil {
			t.Errorf("%q: corpus query does not parse: %v", cq.src, err)
			continue
		}
		var want *telemetry.Table
		var wantErr error
		if cq.bindErr != "" {
			wantErr = errors.New(cq.bindErr)
		} else if want, wantErr = oracleExec(q, src); wantErr != nil && wantErr.Error() != errDivZero.Error() {
			t.Errorf("%s %q: oracle failed with %v; a query that binds may only divide by zero", label, cq.src, wantErr)
			continue
		}
		check := func(source string, got *telemetry.Table, gotErr error) {
			t.Helper()
			switch {
			case wantErr != nil:
				if gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Errorf("%s %s %q: err = %v, want %v", label, source, cq.src, gotErr, wantErr)
				}
			case gotErr != nil:
				t.Errorf("%s %s %q: err = %v, want none", label, source, cq.src, gotErr)
			case !telemetry.Equal(want, got):
				t.Errorf("%s %s %q: results differ\noracle:\n%sgot:\n%s",
					label, source, cq.src, want.Render(0), got.Render(0))
			}
		}
		// Explain.RowsMatched must be the oracle's filtered row count on every
		// source — once a grouped or top-k query holds no matched-row table,
		// it is the only place selectivity shows.
		checkMatched := func(source string, ex *Explain) {
			t.Helper()
			if wantErr != nil {
				return
			}
			if rows, err := oracleMatch(q, src); err != nil || ex.RowsMatched != int64(len(rows)) {
				t.Errorf("%s %s %q: RowsMatched = %d, oracle matched %d rows (err %v)", label, source, cq.src, ex.RowsMatched, len(rows), err)
			}
		}
		got, gotErr := execTable(q, src)
		check("memory", got, gotErr)
		got, gotErr = RunOn(cq.src, src)
		check("RunOn memory", got, gotErr)
		if q.Where != nil { // without one execTable has nothing to scan, and no Explain
			_, ex, _ := execute(q, tableSource{src})
			checkMatched("memory", ex)
		}
		for name, r := range readers {
			before := r.DecodeCount()
			got, ex, gotErr := ExecFileExplain(q, r)
			check(name, got, gotErr)
			checkMatched(name, ex)
			got, gotErr = RunOn(cq.src, r)
			check("RunOn "+name, got, gotErr)
			if cq.bindErr != "" && r.DecodeCount() != before {
				t.Errorf("%s %s %q: bind error after decoding %d chunks", label, name, cq.src, r.DecodeCount()-before)
			}
		}
	}
}

func TestDifferentialExecFile(t *testing.T) {
	runDifferential(t, "corpus", testTable(), corpusReaders(t, testTable()))
}

// TestRunOnRejectsOtherSources: a Source that is neither a colfile reader
// nor a table is an error naming its type.
func TestRunOnRejectsOtherSources(t *testing.T) {
	_, err := RunOn("SELECT count(*) FROM t", tableSource{sortedTable(4)})
	if err == nil || err.Error() != "tql: cannot query a tql.tableSource" {
		t.Fatalf("RunOn = %v, want the unsupported-source error", err)
	}
}

func TestDifferentialExecFileEmptyTable(t *testing.T) {
	empty := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.IntCol("rank"),
		telemetry.FloatCol("wait"), telemetry.StrCol("policy"))
	runDifferential(t, "empty", empty, corpusReaders(t, empty))
}

// fileFor writes src as a v2 colfile and opens a seekable reader on it, one
// that reads chunk bodies in place.
func fileFor(t *testing.T, src *telemetry.Table, chunkRows int) *colfile.Reader {
	t.Helper()
	return fileVia(t, src, chunkRows, true)
}

// fileVia is fileFor on either read path: OpenBytes, which reads chunk
// bodies in place, or Open over a plain io.ReaderAt, which reads each into
// the scan's buffer.
func fileVia(t *testing.T, src *telemetry.Table, chunkRows int, inPlace bool) *colfile.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := colfile.WriteTable(&buf, src, chunkRows); err != nil {
		t.Fatal(err)
	}
	open := colfile.OpenBytes
	if !inPlace {
		open = func(b []byte) (*colfile.Reader, error) {
			return colfile.Open(readerAtOnly{bytes.NewReader(b)}, int64(len(b)))
		}
	}
	r, err := open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// readerAtOnly hides everything of its io.ReaderAt but ReadAt.
type readerAtOnly struct{ ra io.ReaderAt }

func (r readerAtOnly) ReadAt(p []byte, off int64) (int, error) { return r.ra.ReadAt(p, off) }

// sortedTable builds rows with step ascending so chunks have disjoint
// step ranges — the shape zone-map pruning thrives on.
func sortedTable(rows int) *telemetry.Table {
	t := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.FloatCol("wait"), telemetry.StrCol("policy"))
	policies := []string{"lpt", "cdp"}
	for i := 0; i < rows; i++ {
		t.Append(i, float64(i%32), policies[i%2])
	}
	return t
}

// TestMetadataOnlyAggregates asserts the headline acceptance criterion:
// a no-WHERE min/max/sum/count/avg query is answered from the footer
// without decoding any chunk payload — proven by the decode counter.
func TestMetadataOnlyAggregates(t *testing.T) {
	src := sortedTable(1000)
	r := fileFor(t, src, 100)
	q, err := Parse("SELECT count(*) AS n, sum(wait) AS s, min(step) AS lo, max(step) AS hi, avg(wait) AS m FROM f")
	if err != nil {
		t.Fatal(err)
	}
	out, ex, err := ExecFileExplain(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if r.DecodeCount() != 0 {
		t.Fatalf("metadata-only query decoded %d chunks", r.DecodeCount())
	}
	if !ex.MetadataOnly {
		t.Fatalf("explain = %+v, want MetadataOnly", ex)
	}
	if out.Floats("n")[0] != 1000 || out.Floats("lo")[0] != 0 || out.Floats("hi")[0] != 999 {
		t.Fatalf("wrong metadata answer:\n%s", out.Render(0))
	}
	// Cross-check sum and mean against the legacy path.
	want, err := execTable(q, src)
	if err != nil {
		t.Fatal(err)
	}
	if !telemetry.Equal(want, out) {
		t.Fatalf("metadata answer differs from legacy:\n%s\nvs\n%s", out.Render(0), want.Render(0))
	}
}

// TestMetadataOnlyWithCoveringPredicate: a sargable WHERE that fully
// covers or fully excludes every chunk still needs no payload.
func TestMetadataOnlyWithCoveringPredicate(t *testing.T) {
	r := fileFor(t, sortedTable(1000), 100)
	q, err := Parse("SELECT count(*) AS n FROM f WHERE step >= 300 AND step < 500")
	if err != nil {
		t.Fatal(err)
	}
	out, ex, err := ExecFileExplain(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if r.DecodeCount() != 0 || !ex.MetadataOnly {
		t.Fatalf("decodes = %d, explain = %+v", r.DecodeCount(), ex)
	}
	if out.Floats("n")[0] != 200 {
		t.Fatalf("count = %v, want 200", out.Floats("n")[0])
	}
}

// TestPushdownSkipsChunks asserts zone-map pruning decodes only chunks
// whose range intersects the predicate.
func TestPushdownSkipsChunks(t *testing.T) {
	src := sortedTable(1000) // 10 chunks of 100 rows, step ranges disjoint
	r := fileFor(t, src, 100)
	q, err := Parse("SELECT step, wait FROM f WHERE step >= 450 AND step < 520")
	if err != nil {
		t.Fatal(err)
	}
	out, ex, err := ExecFileExplain(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 70 {
		t.Fatalf("rows = %d, want 70", out.NumRows())
	}
	if r.DecodeCount() != 2 { // chunks [400,499] and [500,599]
		t.Fatalf("decoded %d chunks, want 2", r.DecodeCount())
	}
	if ex.ChunksSkipped != 8 || ex.ChunksScanned != 2 {
		t.Fatalf("explain = %+v", ex)
	}
}

// TestProjectionPushdown asserts only referenced columns are decoded.
func TestProjectionPushdown(t *testing.T) {
	r := fileFor(t, sortedTable(200), 50)
	q, err := Parse("SELECT wait FROM f WHERE step < 60")
	if err != nil {
		t.Fatal(err)
	}
	_, ex, err := ExecFileExplain(q, r)
	if err != nil {
		t.Fatal(err)
	}
	// policy is referenced nowhere: it must not appear in the decode set.
	for _, c := range ex.ColumnsDecoded {
		if c == "policy" {
			t.Fatalf("unreferenced column decoded: %v", ex.ColumnsDecoded)
		}
	}
	if len(ex.ColumnsDecoded) != 2 { // step (where) + wait (select)
		t.Fatalf("columns decoded = %v", ex.ColumnsDecoded)
	}
}

// TestPruningUnsoundWithFalliblePrefix: a chunk may only be skipped on
// conjunct i when conjuncts before i cannot error — legacy evaluation
// still runs them on every row of the would-be-skipped chunk.
func TestPruningUnsoundWithFalliblePrefix(t *testing.T) {
	src := testTable() // wait row 1 = 2 → 1/(wait-2) divides by zero
	r := fileFor(t, src, 2)
	// Conjunct 1 (step > 100) excludes every chunk, but conjunct 0 is
	// fallible and must still surface its error.
	q, err := Parse("SELECT * FROM f WHERE 1 / (wait - 2) > 0 AND step > 100")
	if err != nil {
		t.Fatal(err)
	}
	_, _, gotErr := execute(q, r)
	if gotErr == nil || !strings.Contains(gotErr.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", gotErr)
	}
	// Reversed order: pruning on the leading infallible conjunct is sound
	// and the fallible conjunct is never reached (short-circuit).
	q2, err := Parse("SELECT * FROM f WHERE step > 100 AND 1 / (wait - 2) > 0")
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := execute(q2, r)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0", out.NumRows())
	}
}

// TestExplainFallback: there is no fallback route. A query the binder
// cannot type is an error before any chunk is read, and Explain.Fallback —
// still declared for bench/ — stays empty.
func TestExplainFallback(t *testing.T) {
	r := fileFor(t, testTable(), 2)
	q, err := Parse("SELECT * FROM f WHERE wait = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	_, ex, err := ExecFileExplain(q, r)
	if err == nil || err.Error() != "tql: comparing number with string" {
		t.Fatalf("err = %v, want the bind error", err)
	}
	if ex.Fallback != "" || ex.ChunksScanned != 0 || ex.ChunksTotal != 3 || r.DecodeCount() != 0 {
		t.Fatalf("explain = %+v after %d decodes, want an untouched file and no fallback", ex, r.DecodeCount())
	}
}

// oldRename is the row-copying relabel (the oracle's refProject), the
// reference and benchmark baseline for the storage-sharing project.
func oldRename(t *telemetry.Table, names []string) *telemetry.Table {
	old := make([]string, t.NumCols())
	for i, s := range t.Schema() {
		old[i] = s.Name
	}
	return refProject(t, old, names, allRows(t))
}

func renameBenchTable(rows int) (*telemetry.Table, []string) {
	t := telemetry.NewTable(
		telemetry.IntCol("a"), telemetry.FloatCol("b"), telemetry.StrCol("c"))
	for i := 0; i < rows; i++ {
		t.Append(i, float64(i)*0.5, "xyz")
	}
	return t, []string{"x", "y", "z"}
}

func BenchmarkRenameShared(b *testing.B) {
	t, names := renameBenchTable(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := project(t, []string{"a", "b", "c"}, names); out.NumRows() != t.NumRows() {
			b.Fatal("bad rename")
		}
	}
}

func BenchmarkRenameCopy(b *testing.B) {
	t, names := renameBenchTable(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := oldRename(t, names); out.NumRows() != t.NumRows() {
			b.Fatal("bad rename")
		}
	}
}

func TestRenameSharedMatchesCopy(t *testing.T) {
	tb, names := renameBenchTable(100)
	if !telemetry.Equal(oldRename(tb, names), project(tb, []string{"a", "b", "c"}, names)) {
		t.Fatal("storage-sharing projection differs from copying rename")
	}
}

// TestInPlaceBodyChecksum: a Reader over bytes in memory reads chunk bodies
// in place, and still checks every one on every read. A byte flipped inside
// one chunk's body fails that chunk's decode with the checksum error on a
// first scan and on a second: the check is neither skipped nor cached.
func TestInPlaceBodyChecksum(t *testing.T) {
	var buf bytes.Buffer
	if err := colfile.WriteTable(&buf, sortedTable(64), 16); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := colfile.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	m := r.Meta(bad)
	data[m.Offset+4+int64(m.Length)/2] ^= 0x10
	q, err := Parse("SELECT policy, p50(wait) AS m FROM t GROUP BY policy")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("colfile: chunk %d checksum mismatch", bad)
	for scan := 1; scan <= 2; scan++ {
		before := r.DecodeCount()
		_, _, err := execute(q, r)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("scan %d: err = %v, want %q…", scan, err, want)
		}
		if got := r.DecodeCount() - before; got != bad {
			t.Fatalf("scan %d decoded %d chunks before failing, want %d", scan, got, bad)
		}
	}
	if _, _, err := r.DecodeColumns(bad, nil); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("DecodeColumns(%d) = %v, want %q…", bad, err, want)
	}
}
