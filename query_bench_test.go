package amrtools

// Query-path benchmarks for the colfile v2 block index and the TQL
// executor (DESIGN.md §12). All four run the same million-row telemetry
// file; the contrasts are the point:
//
//   - QueryFullScan vs QueryPushdown: the same selective range query (~8% of
//     rows, step-sorted file), first materializing the whole file and
//     querying the table in memory, then querying the file directly —
//     zone-map chunk skipping plus projection pushdown. Both run the same
//     bind and the same kernels; the delta is what the index saves.
//   - QueryMetadataOnly: aggregate-only query answered entirely from the
//     footer index — decoded-chunks/op must report 0.
//   - QueryVectorizedScan: a WHERE clause no zone map can exclude (every
//     chunk is partially selected), so the time is the kernels and the
//     projection decode, not the index.
//
// The file is generated once per process and held in memory, so ns/op
// measures decode + query work, not disk.

import (
	"bytes"
	"sync"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
)

const (
	queryBenchRows  = 1_000_000
	queryBenchChunk = 8192
)

var queryBench struct {
	once sync.Once
	r    *colfile.Reader
	err  error
}

// queryBenchReader builds the shared million-row file: step-sorted (1000
// rows per step, so range predicates on step align with chunk zone maps),
// with per-rank float waits and a low-cardinality policy string column.
func queryBenchReader(b *testing.B) *colfile.Reader {
	queryBench.once.Do(func() {
		t := telemetry.NewTable(
			telemetry.IntCol("step"), telemetry.IntCol("rank"),
			telemetry.FloatCol("wait"), telemetry.StrCol("policy"),
		)
		policies := []string{"baseline", "lpt", "cdp", "cpl50"}
		for i := 0; i < queryBenchRows; i++ {
			t.Append(int64(i/1000), int64(i%512),
				float64(i%997)*0.001, policies[i%4])
		}
		var buf bytes.Buffer
		if err := colfile.WriteTable(&buf, t, queryBenchChunk); err != nil {
			queryBench.err = err
			return
		}
		queryBench.r, queryBench.err = colfile.OpenBytes(buf.Bytes())
	})
	if queryBench.err != nil {
		b.Fatal(queryBench.err)
	}
	return queryBench.r
}

// selectiveQuery touches steps 920..999: 80k of 1M rows, ~8% of the 123
// chunks — the acceptance case for footer-index pushdown.
const selectiveQuery = "SELECT rank, sum(wait) AS w FROM t WHERE step >= 920 GROUP BY rank ORDER BY w DESC LIMIT 8"

// BenchmarkQueryFullScan is the no-index baseline: decode every chunk of
// every column into a table, then run the query over the table in memory
// (the same executor, with nothing to prune and nothing to project away).
func BenchmarkQueryFullScan(b *testing.B) {
	r := queryBenchReader(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := r.Table()
		if err != nil {
			b.Fatal(err)
		}
		out, err := tql.Run(selectiveQuery, map[string]*telemetry.Table{"t": table})
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 8 {
			b.Fatalf("got %d rows", out.NumRows())
		}
	}
	b.ReportMetric(float64(r.NumChunks()), "chunks-decoded/op")
}

// BenchmarkQueryPushdown runs the same query through ExecFile: zone maps
// skip the chunks below step 920 and only the three referenced columns of
// the surviving chunks are decoded.
func BenchmarkQueryPushdown(b *testing.B) {
	r := queryBenchReader(b)
	q, err := tql.Parse(selectiveQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var scanned, skipped int
	for i := 0; i < b.N; i++ {
		out, ex, err := tql.ExecFileExplain(q, r)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 8 {
			b.Fatalf("got %d rows", out.NumRows())
		}
		scanned, skipped = ex.ChunksScanned, ex.ChunksSkipped
	}
	b.ReportMetric(float64(scanned), "chunks-decoded/op")
	b.ReportMetric(float64(skipped), "chunks-skipped/op")
}

// BenchmarkQueryMetadataOnly: min/max/sum/count/avg with no WHERE clause is
// answered from the footer zone maps without decoding any payload.
func BenchmarkQueryMetadataOnly(b *testing.B) {
	r := queryBenchReader(b)
	q, err := tql.Parse("SELECT count(*) AS n, min(wait), max(wait), sum(wait), avg(wait) FROM t")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	before := r.DecodeCount()
	for i := 0; i < b.N; i++ {
		out, ex, err := tql.ExecFileExplain(q, r)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 1 || !ex.MetadataOnly {
			b.Fatalf("rows=%d metadataOnly=%v", out.NumRows(), ex.MetadataOnly)
		}
	}
	b.ReportMetric(float64(r.DecodeCount()-before)/float64(b.N), "chunks-decoded/op")
}

// unsortableQuery selects on wait and rank, which cycle within every chunk:
// no chunk can be skipped or fully taken, so what is timed is the compiled
// predicate and the projection decode, not the index.
const unsortableQuery = "SELECT rank, count(*) AS n FROM t WHERE wait > 0.9 AND rank < 64 GROUP BY rank ORDER BY n DESC LIMIT 4"

// BenchmarkQueryVectorizedScan: the unsortable query through the
// selection-vector kernels, decoding only the two referenced columns.
func BenchmarkQueryVectorizedScan(b *testing.B) {
	r := queryBenchReader(b)
	q, err := tql.Parse(unsortableQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := tql.ExecFile(q, r)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 4 {
			b.Fatalf("got %d rows", out.NumRows())
		}
	}
}
