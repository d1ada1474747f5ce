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
	"sort"
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

// ColSpec declares one column of a table schema.
type ColSpec struct {
	Name string
	Type ColType
}

// IntCol declares an Int64 column.
func IntCol(name string) ColSpec { return ColSpec{Name: name, Type: Int64} }

// FloatCol declares a Float64 column.
func FloatCol(name string) ColSpec { return ColSpec{Name: name, Type: Float64} }

// StrCol declares a String column.
func StrCol(name string) ColSpec { return ColSpec{Name: name, Type: String} }

// column is the typed storage for one column.
type column struct {
	spec   ColSpec
	ints   []int64
	floats []float64
	strs   []uint32 // dictionary ids
	dict   []string
	dictID map[string]uint32
}

func (c *column) appendValue(v interface{}) error {
	switch c.spec.Type {
	case Int64:
		switch x := v.(type) {
		case int64:
			c.ints = append(c.ints, x)
		case int:
			c.ints = append(c.ints, int64(x))
		default:
			return fmt.Errorf("telemetry: column %q wants int64, got %T", c.spec.Name, v)
		}
	case Float64:
		switch x := v.(type) {
		case float64:
			c.floats = append(c.floats, x)
		case int:
			c.floats = append(c.floats, float64(x))
		default:
			return fmt.Errorf("telemetry: column %q wants float64, got %T", c.spec.Name, v)
		}
	case String:
		x, ok := v.(string)
		if !ok {
			return fmt.Errorf("telemetry: column %q wants string, got %T", c.spec.Name, v)
		}
		id, ok := c.dictID[x]
		if !ok {
			id = uint32(len(c.dict))
			c.dict = append(c.dict, x)
			c.dictID[x] = id
		}
		c.strs = append(c.strs, id)
	}
	return nil
}

// Table is a columnar table with a fixed schema. The zero value is not
// usable; construct with NewTable. Tables are single-writer: the j1-vs-jN
// identity tests pin down that every append happens on the run's collector
// context, never concurrently from shard windows.
//
//amr:shardowned
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
		col := &column{spec: s}
		if s.Type == String {
			col.dictID = make(map[string]uint32)
		}
		t.byName[s.Name] = len(t.cols)
		t.cols = append(t.cols, col)
	}
	return t
}

// FromColumns builds a table directly from typed column slices, one per
// spec: []int64 for Int64, []float64 for Float64, []string for String. All
// slices must have equal length. Unlike row-wise Append, no per-cell
// interface boxing happens — this is the fast path decoders use.
// Int64/Float64 slices are adopted, not copied: the caller must not modify
// them afterwards.
func FromColumns(specs []ColSpec, cols []interface{}) (*Table, error) {
	if len(specs) != len(cols) {
		return nil, fmt.Errorf("telemetry: FromColumns: %d specs, %d columns", len(specs), len(cols))
	}
	t := NewTable(specs...)
	rows := -1
	for i, s := range specs {
		c := t.cols[i]
		var n int
		switch s.Type {
		case Int64:
			xs, ok := cols[i].([]int64)
			if !ok {
				return nil, fmt.Errorf("telemetry: FromColumns: column %q wants []int64, got %T", s.Name, cols[i])
			}
			c.ints = xs
			n = len(xs)
		case Float64:
			xs, ok := cols[i].([]float64)
			if !ok {
				return nil, fmt.Errorf("telemetry: FromColumns: column %q wants []float64, got %T", s.Name, cols[i])
			}
			c.floats = xs
			n = len(xs)
		case String:
			xs, ok := cols[i].([]string)
			if !ok {
				return nil, fmt.Errorf("telemetry: FromColumns: column %q wants []string, got %T", s.Name, cols[i])
			}
			c.strs = make([]uint32, len(xs))
			for r, v := range xs {
				id, seen := c.dictID[v]
				if !seen {
					id = uint32(len(c.dict))
					c.dict = append(c.dict, v)
					c.dictID[v] = id
				}
				c.strs[r] = id
			}
			n = len(xs)
		default:
			return nil, fmt.Errorf("telemetry: FromColumns: unknown column type %v", s.Type)
		}
		if rows >= 0 && n != rows {
			return nil, fmt.Errorf("telemetry: FromColumns: column %q has %d rows, want %d", s.Name, n, rows)
		}
		rows = n
	}
	if rows < 0 {
		rows = 0
	}
	t.rows = rows
	return t, nil
}

// ColumnData returns the backing storage of column i (schema order) as
// read-only views: ints for an Int64 column, floats for a Float64 column,
// dictionary ids plus the dictionary for a String column; the results the
// column's type does not use are nil. It is what lets the query executor
// scan a table in place, as one chunk, without copying it.
func (t *Table) ColumnData(i int) (ints []int64, floats []float64, ids []uint32, dict []string) {
	c := t.cols[i]
	return c.ints, c.floats, c.strs, c.dict
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
	return c.ints
}

// Floats returns the backing slice of a Float64 column (do not modify).
func (t *Table) Floats(name string) []float64 {
	c := t.col(name)
	if c.spec.Type != Float64 {
		panic("telemetry: " + name + " is not float64")
	}
	return c.floats
}

// Strings materializes a String column as a []string.
func (t *Table) Strings(name string) []string {
	c := t.col(name)
	if c.spec.Type != String {
		panic("telemetry: " + name + " is not string")
	}
	out := make([]string, len(c.strs))
	for i, id := range c.strs {
		out[i] = c.dict[id]
	}
	return out
}

// NumericAt returns the value at (col, row) coerced to float64. String
// columns return NaN.
func (t *Table) NumericAt(name string, row int) float64 {
	c := t.col(name)
	switch c.spec.Type {
	case Int64:
		return float64(c.ints[row])
	case Float64:
		return c.floats[row]
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
		return c.ints[row]
	case Float64:
		return c.floats[row]
	case String:
		return c.dict[c.strs[row]]
	default:
		panic("telemetry: unknown column type")
	}
}

// AppendFrom copies row `row` of src (which must share the schema) into t.
func (t *Table) AppendFrom(src *Table, row int) {
	vals := make([]interface{}, len(t.cols))
	for i, c := range t.cols {
		vals[i] = src.ValueAt(c.spec.Name, row)
	}
	t.Append(vals...)
}

// Filter returns a new table holding rows where keep(row) is true.
func (t *Table) Filter(keep func(row int) bool) *Table {
	out := NewTable(t.Schema()...)
	for r := 0; r < t.rows; r++ {
		if keep(r) {
			out.AppendFrom(t, r)
		}
	}
	return out
}

// Select returns a new table with only the named columns, in order.
func (t *Table) Select(names ...string) *Table {
	specs := make([]ColSpec, len(names))
	for i, n := range names {
		s, err := t.ColDescr(n)
		if err != nil {
			panic(err)
		}
		specs[i] = s
	}
	out := NewTable(specs...)
	for r := 0; r < t.rows; r++ {
		vals := make([]interface{}, len(names))
		for i, n := range names {
			vals[i] = t.ValueAt(n, r)
		}
		out.Append(vals...)
	}
	return out
}

// SortBy returns a new table sorted by the named column (stable). desc
// reverses the order.
func (t *Table) SortBy(name string, desc bool) *Table {
	c := t.col(name)
	idx := make([]int, t.rows)
	for i := range idx {
		idx[i] = i
	}
	less := func(a, b int) bool {
		switch c.spec.Type {
		case Int64:
			return c.ints[a] < c.ints[b]
		case Float64:
			return c.floats[a] < c.floats[b]
		case String:
			return c.dict[c.strs[a]] < c.dict[c.strs[b]]
		default:
			panic("telemetry: unknown column type")
		}
	}
	sort.SliceStable(idx, func(i, j int) bool {
		if desc {
			return less(idx[j], idx[i])
		}
		return less(idx[i], idx[j])
	})
	out := NewTable(t.Schema()...)
	for _, r := range idx {
		out.AppendFrom(t, r)
	}
	return out
}

// Head returns a new table with the first n rows.
func (t *Table) Head(n int) *Table {
	out := NewTable(t.Schema()...)
	if n > t.rows {
		n = t.rows
	}
	for r := 0; r < n; r++ {
		out.AppendFrom(t, r)
	}
	return out
}
