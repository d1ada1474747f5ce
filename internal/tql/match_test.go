package tql

import (
	"testing"

	"amrtools/internal/telemetry"
	"amrtools/internal/xrand"
)

// BenchmarkMatch: the WHERE kernel over one chunk of scattered waits with a
// 13 %-selective predicate, a mask as sparse and as irregular as the
// telemetry_query mix's, where a branch on each entry mispredicts on most
// kept rows.
func BenchmarkMatch(b *testing.B) {
	tb := telemetry.NewTable(telemetry.FloatCol("wait"))
	rng := xrand.New(1)
	for range telemetry.ChunkRows {
		tb.Append(rng.Float64())
	}
	q, err := Parse("SELECT count(*) FROM t WHERE wait < 0.13")
	if err != nil {
		b.Fatal(err)
	}
	bd, err := bind(q, tb.Schema())
	if err != nil {
		b.Fatal(err)
	}
	cols := tb.Columns()
	var ctx chunkCtx
	kept := 0
	for range b.N {
		ctx.load(cols, tb.NumRows())
		sel, err := bd.match(&ctx)
		if err != nil {
			b.Fatal(err)
		}
		kept = len(sel)
	}
	b.ReportMetric(float64(kept)/float64(tb.NumRows()), "selectivity")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tb.NumRows()), "ns/row")
}
