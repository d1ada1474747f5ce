package telemetry

// The chunk layout against a flat reference. A column is sealed chunks plus
// an open one (table.go); every operator must read and write it as if it
// were one slice, and no table may see another's appends.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"amrtools/internal/xrand"
)

// refTable is the flat reference: a schema and each column's cells, in row
// order, as int64, float64 or string.
type refTable struct {
	specs []ColSpec
	cells [][]interface{}
}

func (r *refTable) rows() int {
	if len(r.cells) == 0 {
		return 0
	}
	return len(r.cells[0])
}

// pick returns rows sel of r (every row when sel is nil) restricted to the
// columns at idx.
func (r *refTable) pick(idx []int, sel []int) *refTable {
	out := &refTable{}
	for _, ci := range idx {
		out.specs = append(out.specs, r.specs[ci])
		var col []interface{}
		if sel == nil {
			col = slices.Clone(r.cells[ci])
		} else {
			for _, row := range sel {
				col = append(col, r.cells[ci][row])
			}
		}
		out.cells = append(out.cells, col)
	}
	return out
}

func allCols(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// chunkCell is the cell of type typ that row number x of a fuzz run holds.
func chunkCell(typ ColType, x int) interface{} {
	switch typ {
	case Int64:
		return int64(x*7919%1000 - 500)
	case Float64:
		return float64(x%1001) / 8
	}
	return "s" + strconv.Itoa(x%37)
}

// sameCell compares a table cell with a reference cell; floats by bits.
func sameCell(got, want interface{}) bool {
	if g, ok := got.(float64); ok {
		w, ok := want.(float64)
		return ok && math.Float64bits(g) == math.Float64bits(w)
	}
	return got == want
}

// checkLayout holds every column of tb to the layout's invariants: sealed
// chunks are non-empty, all but the first exactly ChunkRows rows, openAt
// counts them, an open chunk over ChunkRows rows only with nothing sealed,
// and every column holds the table's rows.
func checkLayout(t *testing.T, what string, tb *Table) {
	t.Helper()
	for _, c := range tb.cols {
		sealed := 0
		for k := range c.sealed {
			n := c.sealed[k].rows(c.spec.Type)
			if n == 0 || k > 0 && n != ChunkRows {
				t.Fatalf("%s: column %s: sealed chunk %d of %d has %d rows", what, c.spec.Name, k, len(c.sealed), n)
			}
			sealed += n
		}
		open := c.Column.rows(c.spec.Type)
		if sealed != c.openAt || c.openAt+open != tb.rows || len(c.sealed) > 0 && open > ChunkRows {
			t.Fatalf("%s: column %s: %d sealed chunks of %d rows, openAt %d, open chunk %d rows, table %d rows",
				what, c.spec.Name, len(c.sealed), sealed, c.openAt, open, tb.rows)
		}
	}
}

// checkCells compares tb with ref through cell reads only, which join
// nothing, so checking changes no layout.
func checkCells(t *testing.T, what string, tb *Table, ref *refTable) {
	t.Helper()
	checkLayout(t, what, tb)
	if !slices.Equal(tb.Schema(), ref.specs) || tb.NumRows() != ref.rows() {
		t.Fatalf("%s: %v with %d rows, want %v with %d", what, tb.Schema(), tb.NumRows(), ref.specs, ref.rows())
	}
	for ci, s := range ref.specs {
		for r, want := range ref.cells[ci] {
			if got := tb.ValueAt(s.Name, r); !sameCell(got, want) {
				t.Fatalf("%s: %s[%d] = %v, want %v", what, s.Name, r, got, want)
			}
		}
	}
}

// checkFlat compares the flat reads of tb with ref.
func checkFlat(t *testing.T, what string, tb *Table, ref *refTable) {
	t.Helper()
	cols := tb.Columns()
	for ci, s := range ref.specs {
		for r, want := range ref.cells[ci] {
			var got interface{}
			switch s.Type {
			case Int64:
				got = tb.Ints(s.Name)[r]
			case Float64:
				got = tb.Floats(s.Name)[r]
			default:
				got = cols[ci].Dict[cols[ci].IDs[r]]
			}
			if !sameCell(got, want) {
				t.Fatalf("%s: flat %s[%d] = %v, want %v", what, s.Name, r, got, want)
			}
		}
	}
	checkLayout(t, what+" after a flat read", tb)
}

// fuzzChunkOps plays the operations data spells on a family of tables and
// their references, each table checked after every operation it takes part
// in and the whole family at the end. Each operation is a byte, then the
// bytes it reads; missing bytes read as zero.
//
//	op%8  0 Append rows        1 AppendColumns(nil sel)  2 AppendColumns(sel)
//	      3 FromColumns         4 a view                  5 cell reads
//	      6 flat reads, Equal   7 Filter, SortBy
//
// A row position byte b lands near a multiple of ChunkRows/8 (b>>3 of them,
// give or take 4), so views and selections fall on and around chunk edges.
func fuzzChunkOps(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pos := func(n int) int { b := next(); return min(max(b>>3*ChunkRows/8+b&7-4, 0), n) }

	type member struct {
		tb  *Table
		ref *refTable
	}
	root := &refTable{specs: []ColSpec{IntCol("i"), FloatCol("f"), StrCol("s")}, cells: make([][]interface{}, 3)}
	family := []member{{NewTable(root.specs...), root}}
	x := 0 // cells drawn so far
	const maxRows, maxFamily = 5 * ChunkRows, 8
	adopt := func(what string, tb *Table, ref *refTable) {
		checkCells(t, what, tb, ref)
		if len(family) < maxFamily {
			family = append(family, member{tb, ref})
		}
	}
	for op := 0; len(data) > 0 && op < 40; op++ {
		code := next()
		m := &family[next()%len(family)]
		src := &family[next()%len(family)]
		n := m.tb.NumRows()
		what := fmt.Sprintf("op %d (%d) on %d rows", op, code%8, n)
		sameTypes := slices.EqualFunc(m.ref.specs, src.ref.specs, func(a, b ColSpec) bool { return a.Type == b.Type })
		switch code % 8 {
		case 0:
			k := min(next()*next()%(2*ChunkRows+64), maxRows-n)
			vals := make([]interface{}, len(m.ref.specs))
			for r := 0; r < k; r++ {
				for ci, s := range m.ref.specs {
					vals[ci] = chunkCell(s.Type, x)
					m.ref.cells[ci] = append(m.ref.cells[ci], vals[ci])
				}
				m.tb.Append(vals...)
				x++
			}
			checkCells(t, what+": Append", m.tb, m.ref)
		case 1, 2:
			if !sameTypes {
				continue
			}
			cols, sn := src.tb.Columns(), src.tb.NumRows()
			var sel []int
			if code%8 == 2 {
				rng := xrand.New(uint64(next()))
				sel = make([]int, min(next()*64, maxRows-n))
				for i := range sel {
					if sel[i] = 0; sn > 0 {
						sel[i] = rng.Intn(sn)
					}
				}
				if sn == 0 {
					sel = sel[:0]
				}
			} else if n+sn > maxRows {
				continue
			}
			add := src.ref.pick(allCols(len(src.ref.specs)), sel)
			m.tb.AppendColumns(cols, sel)
			for ci := range m.ref.cells {
				m.ref.cells[ci] = append(m.ref.cells[ci], add.cells[ci]...)
			}
			checkCells(t, what+": AppendColumns", m.tb, m.ref)
			checkCells(t, what+": AppendColumns source", src.tb, src.ref)
		case 3:
			tb, err := FromColumns(m.tb.Schema(), m.tb.Columns())
			if err != nil {
				t.Fatal(err)
			}
			adopt(what+": FromColumns", tb, m.ref.pick(allCols(len(m.ref.specs)), nil))
		case 4:
			switch next() % 4 {
			case 0:
				lo := pos(n)
				hi := min(lo+pos(n), n)
				adopt(fmt.Sprintf("%s: Slice(%d, %d)", what, lo, hi), m.tb.Slice(lo, hi), m.ref.pick(allCols(len(m.ref.specs)), rowRange(lo, hi)))
			case 1:
				h := pos(n)
				adopt(fmt.Sprintf("%s: Head(%d)", what, h), m.tb.Head(h), m.ref.pick(allCols(len(m.ref.specs)), rowRange(0, h)))
			case 2:
				idx := xrand.New(uint64(next())).Perm(len(m.ref.specs))
				names := make([]string, len(idx))
				for i, ci := range idx {
					names[i] = m.ref.specs[ci].Name
				}
				adopt(fmt.Sprintf("%s: Select%v", what, names), m.tb.Select(names...), m.ref.pick(idx, nil))
			default:
				drop := next() % len(m.ref.specs)
				keep := slices.Delete(allCols(len(m.ref.specs)), drop, drop+1)
				adopt(what+": Without", m.tb.Without(m.ref.specs[drop].Name), m.ref.pick(keep, nil))
			}
		case 5:
			if n == 0 {
				continue
			}
			for k := 0; k < 8; k++ {
				r := min(pos(n), n-1)
				for ci, s := range m.ref.specs {
					want := m.ref.cells[ci][r]
					if got := m.tb.ValueAt(s.Name, r); !sameCell(got, want) {
						t.Fatalf("%s: ValueAt(%s, %d) = %v, want %v", what, s.Name, r, got, want)
					}
					wantNum := math.NaN()
					switch w := want.(type) {
					case int64:
						wantNum = float64(w)
					case float64:
						wantNum = w
					}
					if got := m.tb.NumericAt(s.Name, r); !sameCell(got, wantNum) {
						t.Fatalf("%s: NumericAt(%s, %d) = %v, want %v", what, s.Name, r, got, wantNum)
					}
				}
			}
			checkLayout(t, what+": cell reads", m.tb)
		case 6:
			view := m.tb.Slice(0, n)
			checkFlat(t, what, m.tb, m.ref)
			if !Equal(view, m.tb) {
				t.Fatalf("%s: a table is not Equal to its own view", what)
			}
			checkCells(t, what+": view after Equal", view, m.ref)
		case 7:
			kept := []int{}
			for r := 0; r < n; r++ {
				if r%3 != 1 {
					kept = append(kept, r)
				}
			}
			adopt(what+": Filter", m.tb.Filter(func(r int) bool { return r%3 != 1 }), m.ref.pick(allCols(len(m.ref.specs)), kept))
			if n <= 2*ChunkRows {
				s := m.ref.specs[next()%len(m.ref.specs)].Name
				sorted := m.tb.SortBy(s, false)
				checkLayout(t, what+": SortBy", sorted)
				if sorted.NumRows() != n {
					t.Fatalf("%s: SortBy(%s) has %d rows, want %d", what, s, sorted.NumRows(), n)
				}
			}
		}
	}
	for i, m := range family {
		checkCells(t, fmt.Sprintf("family member %d at the end", i), m.tb, m.ref)
	}
}

func rowRange(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		rows = append(rows, r)
	}
	return rows
}

// FuzzTableChunks: whatever sequence of appends, adoptions, views and reads
// the input spells, every table reads as its flat reference, keeps the chunk
// layout, and no table sees another's appends.
func FuzzTableChunks(f *testing.F) {
	// Three chunks and a bit by Append, a view across the first edge, a flat
	// read, more appends into the joined column, cell reads past the edges.
	f.Add([]byte{0, 0, 0, 128, 200, 4, 0, 0, 0, 60, 68, 6, 0, 0, 0, 0, 0, 90, 90, 5, 0, 0, 64, 65, 66, 67, 130, 131, 190, 255})
	// A view's appends, then a gather of the family into the root with a
	// selection, FromColumns, and Filter over chunk edges.
	f.Add([]byte{0, 0, 0, 100, 250, 4, 0, 0, 0, 70, 34, 0, 1, 0, 50, 50, 2, 0, 1, 9, 200, 3, 0, 0, 7, 0, 0, 0, 7, 2, 0, 1})
	// Select and Without views, appended to through their own schema.
	f.Add([]byte{0, 0, 0, 255, 255, 4, 0, 0, 2, 5, 4, 0, 0, 3, 1, 0, 1, 0, 90, 40, 0, 2, 0, 90, 40, 6, 1, 0, 6, 2, 0})
	// A view from inside the first chunk over three more, whose later
	// chunks lie ChunkRows apart from an irregular first one.
	f.Add([]byte{0, 0, 0, 255, 255, 0, 0, 0, 255, 255, 4, 0, 0, 0, 36, 255, 5, 1, 0, 10, 100, 150, 200, 220, 240, 250, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { fuzzChunkOps(t, data) })
}

// TestAppendSealsWholeChunks: k·ChunkRows appended rows are k chunks of
// exactly ChunkRows in every column, the last still open; the next row
// seals it and opens the (k+1)-th.
func TestAppendSealsWholeChunks(t *testing.T) {
	const k = 3
	tb := NewTable(IntCol("i"), FloatCol("f"), StrCol("s"))
	for r := 0; r < k*ChunkRows; r++ {
		tb.Append(r, float64(r), "x")
	}
	for _, c := range tb.cols {
		if len(c.sealed) != k-1 || c.Column.rows(c.spec.Type) != ChunkRows {
			t.Fatalf("column %s after %d rows: %d sealed chunks and %d open rows, want %d and %d",
				c.spec.Name, k*ChunkRows, len(c.sealed), c.Column.rows(c.spec.Type), k-1, ChunkRows)
		}
	}
	tb.Append(0, 0.0, "y")
	checkLayout(t, "one row past the edge", tb)
	for _, c := range tb.cols {
		if len(c.sealed) != k || c.openAt != k*ChunkRows {
			t.Fatalf("column %s: %d sealed chunks, openAt %d, want %d and %d", c.spec.Name, len(c.sealed), c.openAt, k, k*ChunkRows)
		}
	}
	// AppendColumns follows the same rule, whatever the feed's size.
	gathered := NewTable(tb.Schema()...)
	for lo := 0; lo < tb.NumRows(); lo += 1000 {
		gathered.AppendColumns(tb.Slice(lo, min(lo+1000, tb.NumRows())).Columns(), nil)
	}
	checkLayout(t, "gathered", gathered)
	if c := gathered.cols[0]; len(c.sealed) != k || c.openAt != k*ChunkRows {
		t.Fatalf("gathered: %d sealed chunks, openAt %d, want %d and %d", len(c.sealed), c.openAt, k, k*ChunkRows)
	}
}

// queryTable builds the benchmark query workload's table shape — step,
// rank, wait and a four-entry policy string — of n rows.
func queryTable(n int) *Table {
	policies := []string{"baseline", "lpt", "cdp", "cpl50"}
	tb := NewTable(IntCol("step"), IntCol("rank"), FloatCol("wait"), StrCol("policy"))
	for i := 0; i < n; i++ {
		tb.Append(int64(i/1000), int64(i*7919%512), float64(i%977)*1e-6, policies[i*31%4])
	}
	return tb
}

// queryColumnBytes is what queryTable's cells take: three 8-byte columns
// and one of 4-byte dictionary ids.
func queryColumnBytes(n int) int { return n * (8 + 8 + 8 + 4) }

// TestAppendAllocatesItsCells: building a million-row table allocates within
// 5 % of its cells' bytes — each sealed chunk is allocated once, at its
// size, and only the first grows, by doubling, up to ChunkRows.
func TestAppendAllocatesItsCells(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a million-row table")
	}
	const rows = 1_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb := queryTable(rows)
	runtime.ReadMemStats(&after)
	alloc, cells := after.TotalAlloc-before.TotalAlloc, queryColumnBytes(rows)
	t.Logf("%d rows: %d B allocated for %d B of cells (%.3fx)", tb.NumRows(), alloc, cells, float64(alloc)/float64(cells))
	if float64(alloc) > 1.05*float64(cells) {
		t.Errorf("building %d rows allocated %d B, budget 1.05 x %d B of cells", rows, alloc, cells)
	}
}
