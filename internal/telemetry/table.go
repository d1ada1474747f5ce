// Package telemetry implements the structured telemetry pipeline the paper
// converged on (§IV-C, Lesson 4): typed columnar tables collected per
// timestep/rank/block, queryable with relational operations (filter, group,
// aggregate, sort) instead of grepping traces.
//
// The paper's workflow evolved from TAU CSV dumps through pandas into SQL
// over a columnar store (ClickHouse); this package is the in-process
// equivalent: tables of typed columns with dictionary-encoded strings,
// relational operators, and (via internal/colfile) a binary columnar file
// format with embedded chunk statistics.
package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
)

// ColType is the type of a column.
type ColType uint8

const (
	// Int64 is a signed 64-bit integer column.
	Int64 ColType = iota
	// Float64 is a 64-bit float column.
	Float64
	// String is a dictionary-encoded string column.
	String
)

// String returns "int64", "float64", or "string".
func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	}
	return "unknown"
}

// Plane says what a column (or a metric instrument) holds: simulated
// values, bit-identical across worker counts, shard counts and hosts, or
// host readings such as wall clock and heap, which never repeat.
type Plane uint8

const (
	// SimPlane, the zero value, marks simulated values.
	SimPlane Plane = iota
	// HostPlane marks host readings; Table.Sim drops such columns.
	HostPlane
)

// String returns "sim" or "host".
func (p Plane) String() string { return [...]string{"sim", "host"}[p] }

// ColSpec declares one column of a table schema; a colfile keeps its name
// and type, not its plane, so a table read back from a file is all-sim.
type ColSpec struct {
	Name  string
	Type  ColType
	Plane Plane
}

// Host returns s declared as a host-plane column.
func (s ColSpec) Host() ColSpec {
	s.Plane = HostPlane
	return s
}

// IntCol declares an Int64 column.
func IntCol(name string) ColSpec { return ColSpec{Name: name, Type: Int64} }

// FloatCol declares a Float64 column.
func FloatCol(name string) ColSpec { return ColSpec{Name: name, Type: Float64} }

// StrCol declares a String column.
func StrCol(name string) ColSpec { return ColSpec{Name: name, Type: String} }

// Column is the in-memory form of one column, and the only one: tables
// store it, colfile decodes into it and encodes from it, the tql kernels scan
// it. Exactly one representation is populated, per the column's ColType:
// Ints, Floats, or for String the dictionary form — IDs, one per row,
// indexing Dict.
//
// A column's values are Dict[IDs[r]], never Dict itself: a view keeps its
// source's dictionary whole, unused entries included, and one decoded from a
// foreign file may even repeat an entry. Every operator compares strings by
// value and the colfile encoder renumbers ids per chunk, so neither tables
// nor files depend on what else a dictionary holds.
type Column struct {
	Ints   []int64
	Floats []float64
	IDs    []uint32
	Dict   []string
}

// rows returns the column's row count, read off the representation typ uses.
func (c *Column) rows(typ ColType) int {
	switch typ {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	case String:
		return len(c.IDs)
	}
	panic("telemetry: unknown column type")
}

// part returns rows [lo, hi) of c's typ representation, shared and capped at
// hi, so an append to the part reallocates. It carries no dictionary.
func (c *Column) part(typ ColType, lo, hi int) Column {
	switch typ {
	case Int64:
		return Column{Ints: c.Ints[lo:hi:hi]}
	case Float64:
		return Column{Floats: c.Floats[lo:hi:hi]}
	case String:
		return Column{IDs: c.IDs[lo:hi:hi]}
	}
	panic("telemetry: unknown column type")
}

// ChunkRows is the row count of a sealed chunk: a table column fills its
// open chunk in place and seals it at ChunkRows rows, so no row is copied to
// make room for another. Files written from tables cut their chunks at the
// same size, so a file chunk is a memory chunk.
const ChunkRows = 8192

// column is one column of a table, stored as chunks: the sealed ones, which
// nothing writes again, then the open one, which appends fill.
//
// Every sealed chunk but the first holds exactly ChunkRows rows, so a row's
// chunk is arithmetic. The first may hold any number (a column adopted whole,
// or a view starting inside a chunk), and the open chunk holds more than
// ChunkRows only when no chunk is sealed (an adopted or joined column).
type column struct {
	spec ColSpec
	// Column is the open chunk, and its Dict is the column's dictionary:
	// every chunk's ids index it.
	Column
	sealed []Column // the chunks before the open one; their Dicts are unset
	openAt int      // row of the open chunk's first row: the sealed rows
	// dictID maps a string to its id in Dict, for appends. It is built by
	// the first intern that finds Dict past smallDict entries, and never
	// shared: a view has its source's dictionary but not its index, so
	// neither can see an id the other adds.
	dictID map[string]uint32
}

// find returns the chunk holding row r — len(c.sealed) for the open one —
// and r's index in it.
func (c *column) find(r int) (k, i int) {
	if r >= c.openAt {
		return len(c.sealed), r - c.openAt
	}
	head := c.openAt - (len(c.sealed)-1)*ChunkRows // rows of sealed[0]
	if r < head {
		return 0, r
	}
	return 1 + (r-head)/ChunkRows, (r - head) % ChunkRows
}

// chunk returns chunk k, as find numbers them.
func (c *column) chunk(k int) *Column {
	if k == len(c.sealed) {
		return &c.Column
	}
	return &c.sealed[k]
}

// cell returns the chunk holding row r and r's index in it: a cell read
// joins nothing.
func (c *column) cell(r int) (*Column, int) {
	k, i := c.find(r)
	return c.chunk(k), i
}

// reserve makes room in the full open chunk for at least one more row and
// for up to want: a chunk of ChunkRows rows or more is sealed and a new one
// of ChunkRows opened; a smaller one moves to twice its size (at least want,
// at most ChunkRows), so a small table stays small.
func (c *column) reserve(want int) {
	n := c.Column.rows(c.spec.Type)
	size := min(max(2*n, n+want, 8), ChunkRows)
	if n >= ChunkRows {
		c.sealed = append(c.sealed, c.Column.part(c.spec.Type, 0, n))
		c.openAt += n
		n, size = 0, ChunkRows
	}
	switch c.spec.Type {
	case Int64:
		c.Ints = regrow(c.Ints[:n], size)
	case Float64:
		c.Floats = regrow(c.Floats[:n], size)
	case String:
		c.IDs = regrow(c.IDs[:n], size)
	}
}

// regrow returns s copied into a new slice of capacity size.
func regrow[T any](s []T, size int) []T { return append(make([]T, 0, size), s...) }

// flat joins c's chunks into its open chunk, once, and returns it: a flat
// read. The joined chunk keeps a quarter of spare capacity, so appends after
// a read still cost amortized O(1).
func (c *column) flat() *Column {
	if len(c.sealed) == 0 {
		return &c.Column
	}
	switch c.spec.Type {
	case Int64:
		c.Ints = join(c.sealed, c.Ints, func(ch *Column) []int64 { return ch.Ints })
	case Float64:
		c.Floats = join(c.sealed, c.Floats, func(ch *Column) []float64 { return ch.Floats })
	case String:
		c.IDs = join(c.sealed, c.IDs, func(ch *Column) []uint32 { return ch.IDs })
	}
	c.sealed, c.openAt = nil, 0
	return &c.Column
}

// join returns the cells of sealed, then open, in one new slice.
func join[T any](sealed []Column, open []T, cells func(*Column) []T) []T {
	n := len(open)
	for k := range sealed {
		n += len(cells(&sealed[k]))
	}
	out := make([]T, 0, n+n/4)
	for k := range sealed {
		out = append(out, cells(&sealed[k])...)
	}
	return append(out, open...)
}

// cut returns rows [lo, hi) of c as a column of its own that shares c's
// chunks: the chunk holding row hi-1 becomes its open chunk, capped, so an
// append to either side never writes where the other can see. Only a cut
// starting inside a sealed chunk copies chunk headers, those it covers.
func (c *column) cut(lo, hi int) *column {
	out := &column{spec: c.spec}
	if lo < hi {
		typ := c.spec.Type
		kl, il := c.find(lo)
		kh, ih := c.find(hi - 1)
		if kl < kh {
			out.sealed = c.sealed[kl:kh:kh]
			if il > 0 {
				out.sealed = slices.Clone(out.sealed)
				out.sealed[0] = out.sealed[0].part(typ, il, out.sealed[0].rows(typ))
			}
			out.openAt, il = hi-lo-(ih+1), 0
		}
		out.Column = c.chunk(kh).part(typ, il, ih+1)
	}
	out.Dict = c.Dict[:len(c.Dict):len(c.Dict)]
	return out
}

// smallDict is the largest dictionary intern searches in place; past it
// intern builds dictID. Up to four entries the scan costs no more than a map
// lookup on every shape of string measured, and half as much on strings of
// distinct lengths; at eight, appends of equal-length strings cost 45 % more
// than through the map (DESIGN.md §12).
const smallDict = 4

// intern returns the id of s in the column's dictionary, adding it if new.
// A dictionary of at most smallDict entries is searched from its last entry
// back, so a repeated entry (an adopted dictionary may hold one) yields the
// id the index gives it: the last.
func (c *column) intern(s string) uint32 {
	if c.dictID == nil && len(c.Dict) <= smallDict {
		for id := len(c.Dict) - 1; id >= 0; id-- {
			if c.Dict[id] == s {
				return uint32(id)
			}
		}
		if len(c.Dict) < smallDict {
			c.Dict = append(c.Dict, s)
			return uint32(len(c.Dict) - 1)
		}
	}
	if c.dictID == nil {
		c.dictID = make(map[string]uint32, len(c.Dict))
		for id, d := range c.Dict {
			c.dictID[d] = uint32(id)
		}
	}
	id, ok := c.dictID[s]
	if !ok {
		id = uint32(len(c.Dict))
		c.Dict = append(c.Dict, s)
		c.dictID[s] = id
	}
	return id
}

// typeName is what %T would print for v, without retaining v: a boxed value
// handed to fmt escapes, and then every Append caller heap-allocates each
// argument it boxes — on the path that never fails.
func typeName(v interface{}) string {
	if v == nil {
		return "<nil>"
	}
	return reflect.TypeOf(v).String()
}

// appendValue appends v to the open chunk, in place unless it is full.
func (c *column) appendValue(v interface{}) error {
	switch c.spec.Type {
	case Int64:
		var x int64
		switch y := v.(type) {
		case int64:
			x = y
		case int:
			x = int64(y)
		default:
			return fmt.Errorf("telemetry: column %q wants int64, got %s", c.spec.Name, typeName(v))
		}
		if len(c.Ints) == cap(c.Ints) {
			c.reserve(1)
		}
		c.Ints = append(c.Ints, x)
	case Float64:
		var x float64
		switch y := v.(type) {
		case float64:
			x = y
		case int:
			x = float64(y)
		default:
			return fmt.Errorf("telemetry: column %q wants float64, got %s", c.spec.Name, typeName(v))
		}
		if len(c.Floats) == cap(c.Floats) {
			c.reserve(1)
		}
		c.Floats = append(c.Floats, x)
	case String:
		x, ok := v.(string)
		if !ok {
			return fmt.Errorf("telemetry: column %q wants string, got %s", c.spec.Name, typeName(v))
		}
		id := c.intern(x)
		if len(c.IDs) == cap(c.IDs) {
			c.reserve(1)
		}
		c.IDs = append(c.IDs, id)
	}
	return nil
}

// Table is a columnar table with a fixed schema. The zero value is not
// usable; construct with NewTable. A run appends its rows in its own
// deterministic event order, which is what the j1-vs-jN and shard-count
// identity tests pin down.
//
// A Table belongs to one goroutine at a time, reads included: each column is
// a list of chunks (see ChunkRows), and a flat read — Columns, Ints, Floats,
// Strings, Equal, SortByKeys — joins a column of several chunks into one, in
// place, the first time it is asked to. Cell reads (ValueAt, NumericAt) and
// views never join.
//
// Rows move between tables through two kernels, both in this file: view
// (zero-copy: Slice, Head, Select, Without, sharing the chunks they cover)
// and AppendColumns (the one copying loop: Filter, SortBy, every reader
// assembling a table from chunks).
type Table struct {
	cols   []*column
	byName map[string]int
	rows   int
}

// NewTable creates an empty table with the given schema. Duplicate column
// names panic.
func NewTable(schema ...ColSpec) *Table {
	t := &Table{byName: make(map[string]int, len(schema))}
	for _, s := range schema {
		if _, dup := t.byName[s.Name]; dup {
			panic("telemetry: duplicate column " + s.Name)
		}
		t.byName[s.Name] = len(t.cols)
		t.cols = append(t.cols, &column{spec: s})
	}
	return t
}

// adopt builds the table whose columns are rows [0, n) of cols, each
// shared, not copied, as one open chunk. Every slice is capped at its
// length, so an append to either side reallocates instead of writing where
// the other can see.
func adopt(specs []ColSpec, cols []Column, n int) *Table {
	t := NewTable(specs...)
	t.rows = n
	for i, c := range t.cols {
		c.Column = cols[i].part(c.spec.Type, 0, n)
		c.Dict = cols[i].Dict[:len(cols[i].Dict):len(cols[i].Dict)]
	}
	return t
}

// FromColumns builds a table that adopts cols, one per spec, without
// copying: the caller must not modify the storage afterwards (appending to
// the table never writes into it). Each column must populate its spec's
// representation, all with one length, and every String id must index Dict.
func FromColumns(specs []ColSpec, cols []Column) (*Table, error) {
	if len(specs) != len(cols) {
		return nil, fmt.Errorf("telemetry: FromColumns: %d specs, %d columns", len(specs), len(cols))
	}
	rows := 0
	for i, s := range specs {
		n := cols[i].rows(s.Type)
		if i > 0 && n != rows {
			return nil, fmt.Errorf("telemetry: FromColumns: column %q has %d rows, want %d", s.Name, n, rows)
		}
		rows = n
	}
	return adopt(specs, cols, rows), nil
}

// Columns returns the table's columns in schema order, each one flat (a
// flat read). They share the table's storage: read-only.
func (t *Table) Columns() []Column {
	out := make([]Column, len(t.cols))
	for i, c := range t.cols {
		out[i] = *c.flat()
	}
	return out
}

// Schema returns the column specs in order.
func (t *Table) Schema() []ColSpec {
	out := make([]ColSpec, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.spec
	}
	return out
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// HasCol reports whether the table has a column named name.
func (t *Table) HasCol(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// ColDescr returns the spec of the named column.
func (t *Table) ColDescr(name string) (ColSpec, error) {
	i, ok := t.byName[name]
	if !ok {
		return ColSpec{}, fmt.Errorf("telemetry: no column %q", name)
	}
	return t.cols[i].spec, nil
}

// Append adds one row; vals must match the schema positionally.
func (t *Table) Append(vals ...interface{}) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("telemetry: Append with %d values, schema has %d", len(vals), len(t.cols)))
	}
	for i, v := range vals {
		if err := t.cols[i].appendValue(v); err != nil {
			panic(err)
		}
	}
	t.rows++
}

// AppendColumns is the copying row kernel: it appends rows sel of cols, in
// sel order; cols holds one column per table column, of its type. A nil sel
// — nil, not merely empty — means every row. Rows fill the open chunks as
// Append does. String ids go through the table's dictionary once per
// distinct source id, new entries added as rows reach them, so the table
// ends up as if each row had been Appended in turn.
func (t *Table) AppendColumns(cols []Column, sel []int) {
	n := feedRows("AppendColumns", t.Schema(), cols, sel)
	for i, c := range t.cols {
		src := &cols[i]
		switch c.spec.Type {
		case Int64:
			fill(c, &c.Ints, src.Ints, sel, n, nil)
		case Float64:
			fill(c, &c.Floats, src.Floats, sel, n, nil)
		case String:
			xlat := make([]uint32, len(src.Dict)) // source id → table id + 1; 0: not met yet
			fill(c, &c.IDs, src.IDs, sel, n, func(ids []uint32) {
				for k, id := range ids {
					if xlat[id] == 0 {
						xlat[id] = c.intern(src.Dict[id]) + 1
					}
					ids[k] = xlat[id] - 1
				}
			})
		default:
			panic("telemetry: unknown column type")
		}
	}
	t.rows += n
}

// fill appends the n rows sel of src (all of src when sel is nil) to open,
// c's open chunk, a chunk at a time; fix, if set, rewrites each run of rows
// as it lands.
func fill[T any](c *column, open *[]T, src []T, sel []int, n int, fix func([]T)) {
	for done := 0; done < n; {
		if len(*open) == cap(*open) {
			c.reserve(n - done)
		}
		at, k := len(*open), min(n-done, cap(*open)-len(*open))
		if sel == nil {
			*open = append(*open, src[done:done+k]...)
		} else {
			*open = gather(*open, src, sel[done:done+k])
		}
		if fix != nil {
			fix((*open)[at:])
		}
		done += k
	}
}

// feedRows checks one feed of the (cols, sel) shape AppendColumns defines —
// one column per spec, of its type; a nil sel means every row, so the columns
// must then agree on how many that is — and returns its row count. who names
// the caller in the panic.
func feedRows(who string, specs []ColSpec, cols []Column, sel []int) int {
	if len(cols) != len(specs) {
		panic(fmt.Sprintf("telemetry: %s with %d columns, schema has %d", who, len(cols), len(specs)))
	}
	if sel != nil || len(cols) == 0 {
		return len(sel)
	}
	n := cols[0].rows(specs[0].Type)
	for i, s := range specs {
		if have := cols[i].rows(s.Type); have != n {
			panic(fmt.Sprintf("telemetry: %s: column %q has %d rows, want %d", who, s.Name, have, n))
		}
	}
	return n
}

// schemaIndex returns the position of the named column in schema; a name it
// does not hold panics.
func schemaIndex(schema []ColSpec, name string) int {
	i := slices.IndexFunc(schema, func(s ColSpec) bool { return s.Name == name })
	if i < 0 {
		panic("telemetry: no column " + strconv.Quote(name))
	}
	return i
}

// gather appends src[sel...] to dst.
func gather[T any](dst, src []T, sel []int) []T {
	dst = slices.Grow(dst, len(sel))
	for _, r := range sel {
		dst = append(dst, src[r])
	}
	return dst
}

// view is the zero-copy row kernel: rows [lo, hi) of the columns pick, in
// that order. See cut for why neither table can reach the other afterwards.
func (t *Table) view(pick []*column, lo, hi int) *Table {
	if lo < 0 || hi > t.rows || lo > hi {
		panic(fmt.Sprintf("telemetry: rows [%d, %d) of a table with %d", lo, hi, t.rows))
	}
	specs := make([]ColSpec, len(pick))
	for i, c := range pick {
		specs[i] = c.spec
	}
	out := NewTable(specs...)
	out.rows = hi - lo
	for i, c := range pick {
		out.cols[i] = c.cut(lo, hi)
	}
	return out
}

// NumChunks returns how many chunks a reader walks the table in: one per
// ChunkRows rows from row 0, the last one shorter; an empty table is one
// empty chunk.
func (t *Table) NumChunks() int { return max(1, (t.rows+ChunkRows-1)/ChunkRows) }

// Chunk returns chunk i of the walk as a view: rows [i*ChunkRows,
// min((i+1)*ChunkRows, NumRows)). Its columns are the table's own chunks,
// shared, when the table was built by appends (rows that straddle chunks
// are joined into a copy of their own).
func (t *Table) Chunk(i int) *Table {
	lo := i * ChunkRows
	return t.Slice(lo, min(lo+ChunkRows, t.rows))
}

// eachChunk calls f with rows [lo, lo+n) of every chunk of the walk, in
// order.
func (t *Table) eachChunk(f func(lo int, cols []Column, n int)) {
	for i := range t.NumChunks() {
		c := t.Chunk(i)
		f(i*ChunkRows, c.Columns(), c.rows)
	}
}

// Slice returns rows [lo, hi) as a view: a table sharing t's storage, though
// an append to either never shows in the other. Bounds outside
// 0 <= lo <= hi <= NumRows panic.
func (t *Table) Slice(lo, hi int) *Table { return t.view(t.cols, lo, hi) }

// Head returns the first n rows, as Slice does; n is clamped to [0, NumRows].
func (t *Table) Head(n int) *Table { return t.Slice(0, max(0, min(n, t.rows))) }

// Select returns the table of only the named columns, in the order named,
// sharing t's storage like Slice.
func (t *Table) Select(names ...string) *Table {
	pick := make([]*column, len(names))
	for i, n := range names {
		if _, err := t.ColDescr(n); err != nil {
			panic(err)
		}
		pick[i] = t.col(n)
	}
	return t.view(pick, 0, t.rows)
}

func (t *Table) col(name string) *column {
	i, ok := t.byName[name]
	if !ok {
		panic("telemetry: no column " + name)
	}
	return t.cols[i]
}

// Ints returns the backing slice of an Int64 column (do not modify); a
// flat read.
func (t *Table) Ints(name string) []int64 {
	c := t.col(name)
	if c.spec.Type != Int64 {
		panic("telemetry: " + name + " is not int64")
	}
	return c.flat().Ints
}

// Floats returns the backing slice of a Float64 column (do not modify); a
// flat read.
func (t *Table) Floats(name string) []float64 {
	c := t.col(name)
	if c.spec.Type != Float64 {
		panic("telemetry: " + name + " is not float64")
	}
	return c.flat().Floats
}

// Strings materializes a String column as a []string; a flat read.
func (t *Table) Strings(name string) []string {
	c := t.col(name)
	if c.spec.Type != String {
		panic("telemetry: " + name + " is not string")
	}
	ids := c.flat().IDs
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = c.Dict[id]
	}
	return out
}

// NumericAt returns the value at (col, row) coerced to float64. String
// columns return NaN.
func (t *Table) NumericAt(name string, row int) float64 {
	c := t.col(name)
	ch, i := c.cell(row)
	return numericCell(c.spec.Type, ch, i)
}

// numericCell is NumericAt on a bare column of type typ.
func numericCell(typ ColType, c *Column, row int) float64 {
	switch typ {
	case Int64:
		return float64(c.Ints[row])
	case Float64:
		return c.Floats[row]
	case String:
		return math.NaN()
	default:
		panic("telemetry: unknown column type")
	}
}

// ValueAt returns the value at (col, row) as interface{}.
func (t *Table) ValueAt(name string, row int) interface{} {
	c := t.col(name)
	ch, i := c.cell(row)
	switch c.spec.Type {
	case Int64:
		return ch.Ints[i]
	case Float64:
		return ch.Floats[i]
	case String:
		return c.Dict[ch.IDs[i]]
	default:
		panic("telemetry: unknown column type")
	}
}

// Filter returns a new table holding rows where keep(row) is true. It reads
// t chunk by chunk and joins nothing.
func (t *Table) Filter(keep func(row int) bool) *Table {
	out := NewTable(t.Schema()...)
	sel := make([]int, 0, min(t.rows, ChunkRows)) // never nil: no match must not mean every row
	t.eachChunk(func(lo int, cols []Column, n int) {
		sel = sel[:0]
		for r := 0; r < n; r++ {
			if keep(lo + r) {
				sel = append(sel, r)
			}
		}
		out.AppendColumns(cols, sel)
	})
	return out
}

// take returns a new table holding rows sel of t, in sel order; a flat read.
func (t *Table) take(sel []int) *Table {
	out := NewTable(t.Schema()...)
	out.AppendColumns(t.Columns(), sel)
	return out
}

// SortBy returns a new table sorted by the named column under the package's
// one order (compareCells: NaN before every number, -0 equal to +0, strings
// by byte), stably — rows with equal keys keep their order. desc reverses
// the order of unequal keys, so NaN then sorts last; ties still keep theirs.
func (t *Table) SortBy(name string, desc bool) *Table {
	return t.SortByKeys(SortKey{Col: name, Desc: desc})
}

// SortByKeys is SortBy over several keys: rows in the lexicographic order
// of by, rows whose keys all tie in table order — one stable sort, the same
// rows as the chain of SortBy calls from the last key to the first. It is a
// flat read.
func (t *Table) SortByKeys(by ...SortKey) *Table {
	keys := make([]orderKey, len(by))
	cols := make([]*Column, len(by))
	for k, key := range by {
		c := t.col(key.Col)
		keys[k], cols[k] = orderKey{typ: c.spec.Type, desc: key.Desc}, c.flat()
	}
	idx := make([]int, t.rows)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return compareRows(keys, cols, a, cols, b) })
	return t.take(idx)
}
