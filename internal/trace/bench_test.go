package trace

import (
	"io"
	"testing"

	"amrtools/internal/colfile"
)

// benchRecorder is a 256-rank recorder holding 3 600 spans per rank (the
// faulty_observed shape: under the cap, nothing evicted).
func benchRecorder() *Recorder {
	const ranks, perRank = 256, 3600
	r := NewRecorder(ranks, 16, Config{PerRankCap: 2 * DefaultPerRankCap})
	for i := 0; i < perRank; i++ {
		for rank := int32(0); rank < ranks; rank++ {
			r.Emit(Span{Rank: rank, Kind: Kind(i % int(ProbePre)), T0: float64(i), T1: float64(i) + 0.5, Peer: rank ^ 1, Bytes: int64(i), Tag: int32(i % 3)})
		}
	}
	return r
}

// BenchmarkEmit is construction plus emission: what tracing adds to a run.
func BenchmarkEmit(b *testing.B) {
	b.ReportAllocs()
	var r *Recorder
	for i := 0; i < b.N; i++ {
		r = benchRecorder()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.Len()), "ns/span")
}

func BenchmarkTable(b *testing.B) {
	r := benchRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Table()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.Len()), "ns/span")
}

// BenchmarkSpanFile writes the span file both ways: through the table, and
// streamed.
func BenchmarkSpanFile(b *testing.B) {
	r := benchRecorder()
	b.Run("Table+WriteTable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := colfile.WriteTable(io.Discard, r.Table(), 8192); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WriteTo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := r.WriteTo(io.Discard, 8192); err != nil {
				b.Fatal(err)
			}
		}
	})
}
