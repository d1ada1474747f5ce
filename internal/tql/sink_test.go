package tql

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
)

// Allocation budgets for the two sinks that must not materialise what they
// consume. A grouped or top-k query may allocate in proportion to what it
// decodes — the chunk buffers, the WHERE scratch — and nothing in proportion
// to the rows that matched: the gather sink, swapped back in, adds at least
// one copy of every matched row (in practice two to three, the table growing
// by doubling) and fails both halves of each test.

const (
	sinkRows  = 200000
	sinkChunk = 8192
	// allocPerDecoded bounds TotalAlloc over decoded column bytes for a query
	// whose chunks all match whole (no WHERE scratch). Measured: 2.0 for the
	// grouped shape, 1.5–1.7 for top-k — the decoder's own buffers — where a
	// gathered copy starts at one more.
	allocPerDecoded = 2.5
)

// sinkFile is sinkRows rows in sinkChunk-row chunks: step ascending (zone maps
// decide a step predicate chunk by chunk), wait scattered over [0, 1) (a wait
// predicate scans every chunk and matches the fraction it names).
func sinkFile(t *testing.T) *colfile.Reader {
	t.Helper()
	tb := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.IntCol("rank"),
		telemetry.FloatCol("wait"), telemetry.StrCol("policy"))
	policies := []string{"lpt", "cdp", "cpl50"}
	for i := 0; i < sinkRows; i++ {
		tb.Append(i/200, i%256, float64(i*7919%1000)/1000, policies[i%3])
	}
	return fileFor(t, tb, sinkChunk)
}

// queryAlloc runs src over r and returns the bytes it allocated, the column
// bytes it decoded (whole chunks: an upper bound by less than one chunk) and
// the rows that matched.
func queryAlloc(t *testing.T, r *colfile.Reader, src string) (alloc, decoded float64, matched int64) {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ex, err := ExecFileExplain(q, r)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	width := 0
	for _, name := range ex.ColumnsDecoded {
		width += 8
		if s := r.Schema()[schemaIdx(r.Schema(), name)]; s.Type == telemetry.String {
			width -= 4 // dictionary ids
		}
	}
	return float64(after.TotalAlloc - before.TotalAlloc), float64(ex.ChunksScanned * sinkChunk * width), ex.RowsMatched
}

// checkSinkBudget holds one query shape to both halves of the budget: whole is
// the shape with every scanned chunk matching whole; few and most are the same
// shape behind a predicate that scans every chunk and keeps a ninth as many
// rows in few as in most.
func checkSinkBudget(t *testing.T, whole, few, most string) {
	r := sinkFile(t)
	alloc, decoded, matched := queryAlloc(t, r, whole)
	t.Logf("%s: %.0f B allocated, %.0f B decoded (%.2fx), %d rows matched", whole, alloc, decoded, alloc/decoded, matched)
	if matched < sinkRows/4 {
		t.Fatalf("%s matched %d rows: not the shape this test is about", whole, matched)
	}
	if alloc > allocPerDecoded*decoded+64<<10 {
		t.Errorf("%s allocated %.0f B for %.0f B decoded: %.2fx, budget %.1fx — are the matched rows being gathered?",
			whole, alloc, decoded, alloc/decoded, allocPerDecoded)
	}
	fewAlloc, decoded, fewRows := queryAlloc(t, r, few)
	mostAlloc, _, mostRows := queryAlloc(t, r, most)
	t.Logf("%d rows matched: %.0f B; %d rows matched: %.0f B; %.0f B decoded by each", fewRows, fewAlloc, mostRows, mostAlloc, decoded)
	if mostRows < 8*fewRows || fewRows == 0 {
		t.Fatalf("matched %d and %d rows: want a ninefold spread", fewRows, mostRows)
	}
	if mostAlloc-fewAlloc > decoded/4 {
		t.Errorf("matching %d rows allocated %.0f B, matching %d allocated %.0f B: allocation follows the matched rows",
			fewRows, fewAlloc, mostRows, mostAlloc)
	}
}

func TestGroupedQueryDoesNotGather(t *testing.T) {
	const shape = "SELECT policy, count(*) AS n, avg(wait) AS w FROM t %sGROUP BY policy ORDER BY policy"
	checkSinkBudget(t, fmt.Sprintf(shape, ""), fmt.Sprintf(shape, "WHERE wait < 0.1 "), fmt.Sprintf(shape, "WHERE wait < 0.9 "))
}

func TestTopKQueryDoesNotGather(t *testing.T) {
	const shape = "SELECT step, rank, wait FROM t WHERE %s ORDER BY wait DESC LIMIT 10"
	checkSinkBudget(t, fmt.Sprintf(shape, "step < 250"), fmt.Sprintf(shape, "wait < 0.1"), fmt.Sprintf(shape, "wait < 0.9"))
}

// scanQueries are the aggregate and top-k shapes of the benchmark's query
// mix, over scanTable's columns.
var scanQueries = []string{
	"SELECT rank, sum(wait) AS w FROM t WHERE step >= 920 GROUP BY rank ORDER BY w DESC LIMIT 8",
	"SELECT rank, count(*) AS n FROM t WHERE wait > 0.002 AND rank < 64 GROUP BY rank ORDER BY n DESC, rank LIMIT 4",
	"SELECT count(*) AS n, min(wait) AS lo, max(wait) AS hi, sum(wait) AS s, avg(wait) AS m FROM t",
	"SELECT count(*) AS n, sum(wait) AS w FROM t WHERE policy = 'cdp'",
	"SELECT policy, count(*) AS n, avg(wait) AS w FROM t GROUP BY policy ORDER BY policy",
	"SELECT step, rank, wait FROM t WHERE step < 250 ORDER BY wait DESC LIMIT 10",
}

// scanTable is the benchmark's table in miniature: step ascending over
// 0..999, rank scattered over 512, wait over [0, 0.01), and the policies in
// turn, so that every chunk of a multiple of four rows has the same
// dictionary in the same order.
func scanTable() *telemetry.Table {
	const rows = 16 << 10
	tb := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.IntCol("rank"),
		telemetry.FloatCol("wait"), telemetry.StrCol("policy"))
	policies := []string{"baseline", "lpt", "cdp", "cpl50"}
	for i := 0; i < rows; i++ {
		tb.Append(i*1000/rows, i*7919%512, float64(i*104729%1000)/1e5, policies[i%4])
	}
	return tb
}

// TestScanAllocBudget: a scan's working memory is one chunk's worth,
// allocated once and reused for every chunk, so the same rows in eight
// times the chunks cost an aggregate or top-k query at most a few more
// objects, on either read path — it used to be about thirteen more per
// chunk: the body, every decoded column, the selection vector, every
// kernel's vectors. (A chunk whose dictionary differs from its
// predecessor's copies the entries that differ; scanTable's do not. The
// gather sink is exempt: its output is O(rows).)
func TestScanAllocBudget(t *testing.T) {
	const few, many = 16, 128
	tb := scanTable()
	for _, inPlace := range []bool{true, false} {
		rFew := fileVia(t, tb, tb.NumRows()/few, inPlace)
		rMany := fileVia(t, tb, tb.NumRows()/many, inPlace)
		for _, src := range scanQueries {
			q, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(r *colfile.Reader) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, _, err := execute(q, r); err != nil {
						t.Fatal(err)
					}
				})
			}
			a, b := allocs(rFew), allocs(rMany)
			t.Logf("in place %v: %.0f allocs in %d chunks, %.0f in %d: %q", inPlace, a, few, b, many, src)
			if b-a > 4 {
				t.Errorf("in place %v: %q allocates %.0f objects over %d chunks, %.0f over %d: the scan allocates per chunk",
					inPlace, src, a, few, b, many)
			}
		}
	}
}

// TestConcurrentScansShareReader: every scan owns its scratch, so one
// Reader serves concurrent queries on either read path, each getting the
// answer it gets alone. Run it under -race.
func TestConcurrentScansShareReader(t *testing.T) {
	tb := scanTable()
	for _, inPlace := range []bool{true, false} {
		r := fileVia(t, tb, tb.NumRows()/64, inPlace)
		qs := make([]*Query, len(scanQueries))
		want := make([]*telemetry.Table, len(scanQueries))
		for i, src := range scanQueries {
			q, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = q
			if want[i], _, err = execute(q, r); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range qs {
					i := (g + k) % len(qs)
					got, _, err := execute(qs[i], r)
					if err != nil || !telemetry.Equal(got, want[i]) {
						t.Errorf("in place %v, goroutine %d: %q differs from its lone run (err %v)", inPlace, g, scanQueries[i], err)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
