package tql

import (
	"fmt"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
)

// Source is where a query's rows come from: an open *colfile.Reader or an
// in-memory *telemetry.Table, the two things the executor scans.
type Source interface {
	Schema() []telemetry.ColSpec
}

// RunOn parses query and executes it against src, whichever of the two it
// is (the FROM name is not looked at): a block-index scan over a colfile,
// the table's own storage as one chunk over a table — for callers that hold a stream of rows and should not care
// whether it is still on disk.
func RunOn(query string, src Source) (*telemetry.Table, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	switch s := src.(type) {
	case *colfile.Reader:
		t, _, err := execute(q, s)
		return t, err
	case *telemetry.Table:
		return execTable(q, s)
	}
	return nil, fmt.Errorf("tql: cannot query a %T", src)
}

// ExecFileExplain executes a parsed query directly against a colfile, using
// the footer block index for predicate pushdown (zone-map chunk skipping),
// projection pushdown (only referenced columns decoded) and metadata-only
// aggregate answers, and reports how the query was answered. The result
// equals materializing the file and querying the table, in O(one chunk +
// result) memory instead of O(file). The Explain is valid even when the
// result is an error.
func ExecFileExplain(q *Query, r *colfile.Reader) (*telemetry.Table, *Explain, error) {
	return execute(q, r)
}

// metadataOnly answers the query from zone maps alone when it can: no
// GROUP BY, every select item a min/max/sum/count/avg aggregate, every
// chunk fully in or fully out (the caller checked), and every fully-in
// chunk carrying the statistics its aggregates need. Chunk sums fold in
// chunk order; each zone sum was itself accumulated left to right, so this
// matches the sequential sum exactly whenever the additions are exact and
// differs by at most reassociation ULPs otherwise (DESIGN.md §12).
func (b *bound) metadataOnly(src chunkSource, classes []chunkClass, matched int64) (*telemetry.Table, bool) {
	if !b.grouped || len(b.keys) > 0 {
		return nil, false
	}
	specs := make([]telemetry.ColSpec, len(b.q.Select))
	vals := make([]interface{}, len(b.q.Select))
	for si, s := range b.q.Select {
		v, first := 0.0, true
		switch s.Agg {
		case telemetry.Count:
			v = float64(matched) // row counts are always in the index
		case telemetry.Sum, telemetry.Mean, telemetry.Min, telemetry.Max:
			ci := schemaIdx(b.schema, s.Col)
			for i, class := range classes {
				m := src.Meta(i)
				if class != classAll || m.Rows == 0 {
					continue // empty chunks contribute no rows, need no zones
				}
				z := m.Zones[ci]
				switch {
				case s.Agg == telemetry.Sum || s.Agg == telemetry.Mean:
					if !z.HasSum {
						return nil, false
					}
					v += z.Sum
				case !z.HasRange:
					return nil, false
				case s.Agg == telemetry.Min && (first || z.Min < v):
					v = z.Min
				case s.Agg == telemetry.Max && (first || z.Max > v):
					v = z.Max
				}
				first = false
			}
			if s.Agg == telemetry.Mean && matched > 0 {
				v /= float64(matched)
			}
		case telemetry.P50, telemetry.P99, telemetry.Var, telemetry.Std:
			return nil, false // order statistics and moments need the raw values
		default:
			return nil, false
		}
		specs[si] = telemetry.FloatCol(b.out[si])
		vals[si] = v
	}
	if matched == 0 {
		// An aggregate over zero rows is a zero-row result: what the sink
		// holds when nothing was fed to it.
		return b.finish(newAccumulator(b).sink.Table()), true
	}
	out := telemetry.NewTable(specs...)
	out.Append(vals...)
	return b.orderLimit(out), true
}
