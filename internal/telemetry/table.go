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
func (c Column) rows(typ ColType) int {
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

// column is one column of a table.
type column struct {
	spec ColSpec
	Column
	// dictID maps a string to its id in Dict, for appends. It is built on
	// the table's first append and never shared: a view has its source's
	// dictionary but not its index, so neither can see an id the other adds.
	dictID map[string]uint32
}

// intern returns the id of s in the column's dictionary, adding it if new.
func (c *column) intern(s string) uint32 {
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

func (c *column) appendValue(v interface{}) error {
	switch c.spec.Type {
	case Int64:
		switch x := v.(type) {
		case int64:
			c.Ints = append(c.Ints, x)
		case int:
			c.Ints = append(c.Ints, int64(x))
		default:
			return fmt.Errorf("telemetry: column %q wants int64, got %s", c.spec.Name, typeName(v))
		}
	case Float64:
		switch x := v.(type) {
		case float64:
			c.Floats = append(c.Floats, x)
		case int:
			c.Floats = append(c.Floats, float64(x))
		default:
			return fmt.Errorf("telemetry: column %q wants float64, got %s", c.spec.Name, typeName(v))
		}
	case String:
		x, ok := v.(string)
		if !ok {
			return fmt.Errorf("telemetry: column %q wants string, got %s", c.spec.Name, typeName(v))
		}
		c.IDs = append(c.IDs, c.intern(x))
	}
	return nil
}

// Table is a columnar table with a fixed schema. The zero value is not
// usable; construct with NewTable. Tables are single-writer: a run appends
// its rows in its own deterministic event order, which is what the
// j1-vs-jN and shard-count identity tests pin down.
//
// Rows move between tables through two kernels, both in this file: view
// (zero-copy: Slice, Head, Select, Without) and AppendColumns (the one
// copying loop: Filter, SortBy, every reader assembling a table from chunks).
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

// adopt builds the table whose columns are rows [lo, hi) of cols, shared,
// not copied. Every slice is capped at its length, so an append to either
// side reallocates instead of writing where the other can see.
func adopt(specs []ColSpec, cols []Column, lo, hi int) *Table {
	t := NewTable(specs...)
	t.rows = hi - lo
	for i, c := range t.cols {
		src := cols[i]
		switch c.spec.Type {
		case Int64:
			c.Ints = src.Ints[lo:hi:hi]
		case Float64:
			c.Floats = src.Floats[lo:hi:hi]
		case String:
			c.IDs = src.IDs[lo:hi:hi]
			c.Dict = src.Dict[:len(src.Dict):len(src.Dict)]
		default:
			panic("telemetry: unknown column type")
		}
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
	return adopt(specs, cols, 0, rows), nil
}

// Columns returns the table's columns in schema order. They share the
// table's storage: read-only.
func (t *Table) Columns() []Column {
	out := make([]Column, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Column
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
// — nil, not merely empty — means every row. String ids go through the
// table's dictionary once per distinct source id, new entries added as rows
// reach them, so the table ends up as if each row had been Appended in turn.
func (t *Table) AppendColumns(cols []Column, sel []int) {
	n := feedRows("AppendColumns", t.Schema(), cols, sel)
	for i, c := range t.cols {
		src := cols[i]
		switch c.spec.Type {
		case Int64:
			c.Ints = gather(c.Ints, src.Ints, sel)
		case Float64:
			c.Floats = gather(c.Floats, src.Floats, sel)
		case String:
			xlat := make([]uint32, len(src.Dict)) // source id → table id + 1; 0: not met yet
			ids := gather(c.IDs, src.IDs, sel)
			for k := len(c.IDs); k < len(ids); k++ {
				id := ids[k]
				if xlat[id] == 0 {
					xlat[id] = c.intern(src.Dict[id]) + 1
				}
				ids[k] = xlat[id] - 1
			}
			c.IDs = ids
		default:
			panic("telemetry: unknown column type")
		}
	}
	t.rows += n
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

// gather appends src[sel...] (all of src when sel is nil) to dst.
func gather[T any](dst, src []T, sel []int) []T {
	if sel == nil {
		return append(dst, src...)
	}
	dst = slices.Grow(dst, len(sel))
	for _, r := range sel {
		dst = append(dst, src[r])
	}
	return dst
}

// view is the zero-copy row kernel: rows [lo, hi) of the columns pick, in
// that order. See adopt for why neither table can reach the other afterwards.
func (t *Table) view(pick []*column, lo, hi int) *Table {
	if lo < 0 || hi > t.rows || lo > hi {
		panic(fmt.Sprintf("telemetry: rows [%d, %d) of a table with %d", lo, hi, t.rows))
	}
	specs := make([]ColSpec, len(pick))
	cols := make([]Column, len(pick))
	for i, c := range pick {
		specs[i], cols[i] = c.spec, c.Column
	}
	return adopt(specs, cols, lo, hi)
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

// Ints returns the backing slice of an Int64 column (do not modify).
func (t *Table) Ints(name string) []int64 {
	c := t.col(name)
	if c.spec.Type != Int64 {
		panic("telemetry: " + name + " is not int64")
	}
	return c.Ints
}

// Floats returns the backing slice of a Float64 column (do not modify).
func (t *Table) Floats(name string) []float64 {
	c := t.col(name)
	if c.spec.Type != Float64 {
		panic("telemetry: " + name + " is not float64")
	}
	return c.Floats
}

// Strings materializes a String column as a []string.
func (t *Table) Strings(name string) []string {
	c := t.col(name)
	if c.spec.Type != String {
		panic("telemetry: " + name + " is not string")
	}
	out := make([]string, len(c.IDs))
	for i, id := range c.IDs {
		out[i] = c.Dict[id]
	}
	return out
}

// NumericAt returns the value at (col, row) coerced to float64. String
// columns return NaN.
func (t *Table) NumericAt(name string, row int) float64 {
	c := t.col(name)
	return numericCell(c.spec.Type, &c.Column, row)
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
	switch c.spec.Type {
	case Int64:
		return c.Ints[row]
	case Float64:
		return c.Floats[row]
	case String:
		return c.Dict[c.IDs[row]]
	default:
		panic("telemetry: unknown column type")
	}
}

// Filter returns a new table holding rows where keep(row) is true.
func (t *Table) Filter(keep func(row int) bool) *Table {
	sel := make([]int, 0, t.rows) // never nil: no match must not mean every row
	for r := 0; r < t.rows; r++ {
		if keep(r) {
			sel = append(sel, r)
		}
	}
	return t.take(sel)
}

// take returns a new table holding rows sel of t, in sel order.
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
// rows as the chain of SortBy calls from the last key to the first.
func (t *Table) SortByKeys(by ...SortKey) *Table {
	keys := make([]orderKey, len(by))
	cols := make([]*Column, len(by))
	for k, key := range by {
		c := t.col(key.Col)
		keys[k], cols[k] = orderKey{typ: c.spec.Type, desc: key.Desc}, &c.Column
	}
	idx := make([]int, t.rows)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return compareRows(keys, cols, a, cols, b) })
	return t.take(idx)
}
