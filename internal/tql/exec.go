package tql

import (
	"fmt"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
)

// Run parses and executes query against tables, a map of FROM-name → table.
func Run(query string, tables map[string]*telemetry.Table) (*telemetry.Table, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	t, ok := tables[q.From]
	if !ok {
		return nil, fmt.Errorf("tql: unknown table %q", q.From)
	}
	return execTable(q, t)
}

// execTable executes a parsed query against one in-memory table: the same
// bind and the same kernels as a file scan, with the table's own chunks
// standing in for the file's.
func execTable(q *Query, t *telemetry.Table) (*telemetry.Table, error) {
	if q.Where == nil {
		b, err := bind(q, t.Schema())
		if err != nil {
			return nil, err
		}
		if b.sink == sinkGather {
			// Nothing to filter, nothing to fold: the later stages read the
			// table in place.
			return b.finish(t), nil
		}
		acc := newAccumulator(b)
		for i := range t.NumChunks() {
			c := t.Chunk(i)
			acc.add(c.Columns(), c.NumRows(), nil)
		}
		return b.finish(acc.sink.Table()), nil
	}
	out, _, err := execute(q, tableSource{t})
	return out, err
}

// chunkSource is what the executor scans: a schema and a sequence of
// chunks, each with block-index metadata and a projection decode into the
// scan's scratch. *colfile.Reader is one as it stands; tableSource adapts a
// table.
type chunkSource interface {
	Schema() []telemetry.ColSpec
	NumChunks() int
	Meta(i int) colfile.ChunkMeta
	DecodeColumnsInto(s *colfile.Scratch, i int, want []bool) ([]telemetry.Column, int, error)
}

// tableSource presents an in-memory table as its chunk walk
// (Table.NumChunks, Table.Chunk) with no zone maps; the chunks' columns are
// the table's own (nothing is copied for a table built by appends, so it
// needs no scratch). Without zone maps a WHERE makes every chunk classSome,
// so the metadata-only path never sees them; execTable scans a tableSource
// only when there is a WHERE.
type tableSource struct{ *telemetry.Table }

func (s tableSource) Meta(i int) colfile.ChunkMeta {
	return colfile.ChunkMeta{Rows: s.Chunk(i).NumRows()}
}

func (s tableSource) DecodeColumnsInto(_ *colfile.Scratch, i int, _ []bool) ([]telemetry.Column, int, error) {
	c := s.Chunk(i)
	return c.Columns(), c.NumRows(), nil
}

// execute is the one executor: bind, classify every chunk from its zone
// map, answer from metadata alone when that suffices, otherwise decode only
// the referenced columns of only the surviving chunks, filter them through
// the kernels and feed the matched rows, chunk by chunk, to the query's
// post-WHERE sink. The scan's working memory — the decoded columns, the
// kernels' vectors — is one chunk's worth, allocated once and reused for
// every chunk: what a chunk hands the sink is valid only until the next
// chunk, so every sink copies what it keeps. The Explain is valid even when
// the result is an error.
func execute(q *Query, src chunkSource) (*telemetry.Table, *Explain, error) {
	ex := &Explain{ChunksTotal: src.NumChunks()}
	b, err := bind(q, src.Schema())
	if err != nil {
		return nil, ex, err
	}

	classes := make([]chunkClass, src.NumChunks())
	matched := int64(0) // rows in classAll chunks
	allOrNone := true
	for i := range classes {
		m := src.Meta(i)
		classes[i] = b.classifyChunk(m)
		switch classes[i] {
		case classAll:
			matched += int64(m.Rows)
		case classSome:
			allOrNone = false
		case classNone:
			// contributes no rows and no decode
		}
	}
	if allOrNone {
		if out, ok := b.metadataOnly(src, classes, matched); ok {
			ex.MetadataOnly = true
			ex.ChunksSkipped = src.NumChunks()
			ex.RowsMatched = matched
			return out, ex, nil
		}
	}

	// Fully-matching chunks decode only the output columns; chunks that
	// must be filtered add the WHERE columns.
	acc := newAccumulator(b)
	decoded := b.needOut
	var dec colfile.Scratch
	var ctx chunkCtx
	for i, class := range classes {
		switch class {
		case classNone:
			ex.ChunksSkipped++
		case classAll:
			cols, n, err := src.DecodeColumnsInto(&dec, i, b.needOut)
			if err != nil {
				return nil, ex, err
			}
			ex.ChunksScanned++
			ex.RowsMatched += int64(n)
			acc.add(cols, n, nil)
		case classSome:
			cols, n, err := src.DecodeColumnsInto(&dec, i, b.needScan)
			if err != nil {
				return nil, ex, err
			}
			ex.ChunksScanned++
			decoded = b.needScan
			ctx.load(cols, n)
			sel, err := b.match(&ctx)
			if err != nil {
				return nil, ex, err
			}
			ex.RowsMatched += int64(len(sel))
			acc.add(cols, len(sel), sel)
		}
	}
	if ex.ChunksScanned > 0 {
		for i, s := range b.schema {
			if decoded[i] {
				ex.ColumnsDecoded = append(ex.ColumnsDecoded, s.Name)
			}
		}
	}
	return b.finish(acc.sink.Table()), ex, nil
}

// match returns the rows of the chunk that satisfy the WHERE clause, in
// row order — never nil, which the accumulator would read as "every row" —
// in one of c's buffers. Conjuncts run left to right, each on the rows its
// predecessors kept — short-circuit AND over the top-level spine.
func (b *bound) match(c *chunkCtx) ([]int, error) {
	sel := c.rows.get(c.n)
	for i := range sel {
		sel[i] = i
	}
	for _, cj := range b.conjs {
		mask, err := cj.pred.eval(c, sel)
		if err != nil {
			return nil, err
		}
		sel = compact(sel, mask)
	}
	return sel, nil
}

// compact returns the rows of sel whose mask entry is set, in order, in
// sel's own storage. It stores every row and advances k past the kept ones,
// so no branch depends on the mask — on amd64 the increment is a CMOVQNE
// (go build -gcflags=-S) — where a branch on a mask keeping one row in four
// to eight is mispredicted about as often as a row is kept.
func compact(sel []int, mask []bool) []int {
	k := 0
	for i, ok := range mask {
		sel[k] = sel[i]
		if ok {
			k++
		}
	}
	return sel[:k]
}

// finish turns what the sink holds — the matched rows, their groups, or
// their first LIMIT rows in order — into the result: projection, then ORDER
// BY and LIMIT. cur must hold at least the columns b.src names; bind has
// already ruled out every way this can fail.
func (b *bound) finish(cur *telemetry.Table) *telemetry.Table {
	if !b.q.Star {
		cur = project(cur, b.src, b.out)
	}
	return b.orderLimit(cur)
}

// orderLimit runs the ORDER BY and LIMIT stages, by one rule: ORDER BY with
// a LIMIT is the top-k kernel, ORDER BY alone one stable multi-key sort
// (which the kernel equals, row for row, followed by Head).
func (b *bound) orderLimit(cur *telemetry.Table) *telemetry.Table {
	by := b.q.OrderBy
	switch {
	case len(by) > 0 && b.q.Limit >= 0:
		top := telemetry.NewTopK(cur.Schema(), by, b.q.Limit)
		for i := range cur.NumChunks() {
			top.Add(cur.Chunk(i).Columns(), nil)
		}
		return top.Table()
	case b.q.Limit >= 0:
		return cur.Head(b.q.Limit)
	}
	if len(by) > 0 {
		return cur.SortByKeys(by...)
	}
	return cur
}

// project returns the table whose i-th column is t's column src[i] under
// the name out[i], its type and plane kept. A source may repeat (SELECT
// rank AS a, rank AS b). The result shares t's storage: a relabel is
// O(columns), not O(rows).
func project(t *telemetry.Table, src, out []string) *telemetry.Table {
	schema, all := t.Schema(), t.Columns()
	specs := make([]telemetry.ColSpec, len(src))
	cols := make([]telemetry.Column, len(src))
	for i, name := range src {
		ci := schemaIdx(schema, name)
		if ci < 0 {
			panic("tql: no column " + name) // bind resolved every name
		}
		specs[i] = schema[ci]
		specs[i].Name = out[i]
		cols[i] = all[ci]
	}
	res, err := telemetry.FromColumns(specs, cols)
	if err != nil {
		panic(err) // equal-length columns of one table under distinct names
	}
	return res
}

// sink is where matched rows go, chunk by chunk, and what they have become
// by the end. There are three, chosen at bind (sinkKind).
type sink interface {
	Add(cols []telemetry.Column, sel []int)
	Table() *telemetry.Table
}

// gatherSink is the table of every matched row.
type gatherSink struct{ t *telemetry.Table }

func (g gatherSink) Add(cols []telemetry.Column, sel []int) { g.t.AppendColumns(cols, sel) }
func (g gatherSink) Table() *telemetry.Table                { return g.t }

// accumulator feeds the matched rows of the needOut columns, chunk by chunk,
// to the query's sink.
type accumulator struct {
	idx  []int              // schema index of each carried column
	pick []telemetry.Column // scratch: one chunk's carried columns
	rows []int64            // scratch: the count(*) placeholder column
	sink sink
}

func newAccumulator(b *bound) *accumulator {
	a := &accumulator{}
	var specs []telemetry.ColSpec
	for i, s := range b.schema {
		if b.needOut[i] {
			a.idx = append(a.idx, i)
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		// count(*) alone reads no column, but its row count must survive:
		// carry it on a placeholder no query can name.
		specs = []telemetry.ColSpec{telemetry.IntCol("#rows")}
	}
	a.pick = make([]telemetry.Column, len(specs))
	switch b.sink {
	case sinkGather:
		a.sink = gatherSink{telemetry.NewTable(specs...)}
	case sinkAggregate:
		a.sink = telemetry.NewGroupAgg(specs, b.keys, b.aggs)
	case sinkTopK:
		a.sink = telemetry.NewTopK(specs, b.orderSrc, b.q.Limit)
	default:
		panic("tql: unresolved sink")
	}
	return a
}

// add feeds rows sel of a chunk's columns (nil: all of them); n is how many
// rows that is.
func (a *accumulator) add(cols []telemetry.Column, n int, sel []int) {
	if len(a.idx) == 0 {
		if cap(a.rows) < n {
			a.rows = make([]int64, n) // the sink reads only how many
		}
		a.pick[0], sel = telemetry.Column{Ints: a.rows[:n]}, nil
	}
	for k, ci := range a.idx {
		a.pick[k] = cols[ci]
	}
	a.sink.Add(a.pick, sel)
}
