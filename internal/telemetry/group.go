package telemetry

import (
	"math"
	"slices"
)

// GroupAgg is the hash-aggregate kernel: it groups the rows fed to it by
// their key columns and folds the aggregates per group as the rows arrive, so
// what it holds grows with the groups, not with the rows (p50, p99, var and
// std alone keep their group's values). Feed it with Add, chunk by chunk;
// read it with Table. Table.GroupBy is one Add of the whole table.
//
// Group identity is per type: an int64 by value; a float64 by bit pattern
// with every NaN one group, so -0 and +0 are two groups; a string by value,
// whatever dictionary ids the feeds happen to use.
//
// Every float comes out bit-identical to AggFunc.Apply over the group's
// values in row order, however the rows were cut into feeds: each state is
// updated one row at a time, in feed order, by the same operation the stats
// primitives run — sum and mean the left-to-right += from zero, min and max
// a scan seeded with the group's first value.
type GroupAgg struct {
	schema []ColSpec
	specs  []ColSpec // output: the key columns, then one Float64 per aggregate
	keys   []int     // schema index of each key column
	aggs   []groupFold

	// The index: open addressing over group numbers, hashed on the packed
	// key codes. It is only ever probed; output order comes from the keys.
	// A lone String key has none (slots nil): its code is its group number,
	// since both count distinct strings in order of first appearance.
	slots []uint32 // group+1; 0: empty. len is a power of two
	codes []uint64 // len(keys) per group, group-major

	// Per group, in order of first appearance.
	keyCols []*column // key cells of the group's first row; strings interned here
	count   []float64

	// Scratch, one feed at a time: per string key, source dictionary id →
	// code+1 (0: not met yet), so a string is hashed once per distinct id
	// per feed, not once per row.
	xlat [][]uint32

	// Scratch, one block of rows at a time.
	code []uint64 // len(keys) per row, row-major
	gid  []uint32
	ints []int64
	flts []float64
	ids  []uint32
}

// groupFold is one aggregate's per-group state.
type groupFold struct {
	fn    AggFunc
	col   int         // schema index of the source column; unused by Count
	state []float64   // Sum, Mean: running sum. Min, Max: running extreme
	vals  [][]float64 // P50, P99, Var, Std: the group's values, for Apply
}

// aggBlock is how many rows Add resolves to groups at a time: the scratch
// stays cache-sized whatever the feed's length.
const aggBlock = 4096

// NewGroupAgg returns an empty aggregator over feeds of the given schema,
// grouping by keys and evaluating aggs per group. An unknown column or a
// non-Count aggregate over a String column panics.
func NewGroupAgg(schema []ColSpec, keys []string, aggs []AggSpec) *GroupAgg {
	g := &GroupAgg{schema: schema}
	if len(keys) != 1 || schema[schemaIndex(schema, keys[0])].Type != String {
		g.slots = make([]uint32, 16)
	}
	for _, k := range keys {
		ci := schemaIndex(schema, k)
		g.keys = append(g.keys, ci)
		g.keyCols = append(g.keyCols, &column{spec: schema[ci]})
		g.specs = append(g.specs, schema[ci])
	}
	for _, a := range aggs {
		f, out := groupFold{fn: a.Func}, FloatCol(a.outName())
		if a.Func != Count {
			if f.col = schemaIndex(schema, a.Col); schema[f.col].Type == String {
				panic("telemetry: aggregate over string column " + a.Col)
			}
			out.Plane = schema[f.col].Plane
		}
		g.aggs = append(g.aggs, f)
		g.specs = append(g.specs, out)
	}
	return g
}

// Add feeds rows sel of cols, in sel order (a nil sel: every row), as
// AppendColumns takes them.
func (g *GroupAgg) Add(cols []Column, sel []int) {
	n := feedRows("GroupAgg.Add", g.schema, cols, sel)
	if g.xlat == nil {
		g.xlat = make([][]uint32, len(g.keys))
	}
	for j, ci := range g.keys {
		if g.schema[ci].Type == String {
			d := len(cols[ci].Dict)
			g.xlat[j] = slices.Grow(g.xlat[j][:0], d)[:d]
			clear(g.xlat[j])
		}
	}
	for lo := 0; lo < n; lo += aggBlock {
		hi := min(lo+aggBlock, n)
		g.resolve(cols, sel, lo, hi)
		g.fold(cols, sel, lo, hi)
	}
}

// block returns rows sel[lo:hi] of src — rows [lo, hi) when sel is nil, and
// then src's own storage — gathered into buf otherwise.
func block[T any](buf *[]T, src []T, sel []int, lo, hi int) []T {
	if sel == nil {
		return src[lo:hi]
	}
	*buf = gather((*buf)[:0], src, sel[lo:hi])
	return *buf
}

// resolve fills g.gid with the group of each row of the block, creating
// groups as first rows reach them.
func (g *GroupAgg) resolve(cols []Column, sel []int, lo, hi int) {
	n, nk := hi-lo, len(g.keys)
	g.code = slices.Grow(g.code[:0], n*nk)[:n*nk]
	for j, ci := range g.keys {
		src, kc := &cols[ci], g.keyCols[j]
		switch kc.spec.Type {
		case Int64:
			for i, v := range block(&g.ints, src.Ints, sel, lo, hi) {
				g.code[i*nk+j] = uint64(v)
			}
		case Float64:
			for i, v := range block(&g.flts, src.Floats, sel, lo, hi) {
				if math.IsNaN(v) {
					v = math.NaN() // one group, whatever the payload bits
				}
				g.code[i*nk+j] = math.Float64bits(v)
			}
		case String:
			known := g.xlat[j]
			for i, id := range block(&g.ids, src.IDs, sel, lo, hi) {
				if known[id] == 0 {
					known[id] = kc.intern(src.Dict[id]) + 1
				}
				g.code[i*nk+j] = uint64(known[id] - 1)
			}
		default:
			panic("telemetry: unknown column type")
		}
	}
	g.gid = slices.Grow(g.gid[:0], n)[:n]
	row := func(i int) int {
		if sel != nil {
			return sel[lo+i]
		}
		return lo + i
	}
	if g.slots == nil { // a lone String key: a new code is the next group
		for i, code := range g.code {
			if int(code) == len(g.count) {
				g.newGroup(g.code[i:i+1], cols, row(i))
			}
			g.gid[i] = uint32(code)
		}
		return
	}
	for i := range g.gid {
		code := g.code[i*nk : (i+1)*nk]
		at := g.probe(code)
		if g.slots[at] == 0 {
			at = g.insert(at, code)
			g.newGroup(code, cols, row(i))
		}
		g.gid[i] = g.slots[at] - 1
	}
}

// probe returns the slot holding the group with this code, or the empty slot
// where it belongs.
func (g *GroupAgg) probe(code []uint64) int {
	h := uint64(len(code))
	for _, c := range code {
		h = (h ^ c) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	mask := len(g.slots) - 1
	for at := int(h) & mask; ; at = (at + 1) & mask {
		grp := g.slots[at]
		if grp == 0 || slices.Equal(g.codes[int(grp-1)*len(code):int(grp)*len(code)], code) {
			return at
		}
	}
}

// insert indexes the group newGroup opens next under its code, at the empty
// slot probe found for it, and returns the slot it ends up in.
func (g *GroupAgg) insert(at int, code []uint64) int {
	grp := len(g.count)
	if 2*(grp+1) > len(g.slots) { // keep the index at most half full
		g.slots = make([]uint32, 2*len(g.slots))
		for old := 0; old < grp; old++ {
			g.slots[g.probe(g.codes[old*len(code):(old+1)*len(code)])] = uint32(old + 1)
		}
		at = g.probe(code)
	}
	g.slots[at] = uint32(grp + 1)
	g.codes = append(g.codes, code...)
	return at
}

// newGroup opens the next group, whose key codes are code and whose first
// row is row r of cols.
func (g *GroupAgg) newGroup(code []uint64, cols []Column, r int) {
	g.count = append(g.count, 0)
	for j, kc := range g.keyCols {
		src := &cols[g.keys[j]]
		switch kc.spec.Type {
		case Int64:
			kc.Ints = append(kc.Ints, src.Ints[r])
		case Float64:
			kc.Floats = append(kc.Floats, src.Floats[r])
		case String:
			kc.IDs = append(kc.IDs, uint32(code[j]))
		default:
			panic("telemetry: unknown column type")
		}
	}
	for a := range g.aggs {
		f := &g.aggs[a]
		switch f.fn {
		case Count:
		case Sum, Mean:
			f.state = append(f.state, 0)
		case Min, Max:
			f.state = append(f.state, numericCell(g.schema[f.col].Type, &cols[f.col], r))
		case P50, P99, Var, Std:
			f.vals = append(f.vals, nil)
		default:
			panic("telemetry: unknown aggregate")
		}
	}
}

// fold updates every aggregate with the rows of the block, in row order.
func (g *GroupAgg) fold(cols []Column, sel []int, lo, hi int) {
	for _, grp := range g.gid {
		g.count[grp]++
	}
	for a := range g.aggs {
		f := &g.aggs[a]
		if f.fn == Count {
			continue
		}
		var xs []float64
		if g.schema[f.col].Type == Int64 {
			xs = g.flts[:0]
			for _, v := range block(&g.ints, cols[f.col].Ints, sel, lo, hi) {
				xs = append(xs, float64(v))
			}
			g.flts = xs
		} else {
			xs = block(&g.flts, cols[f.col].Floats, sel, lo, hi)
		}
		switch f.fn {
		case Sum, Mean:
			for i, x := range xs {
				f.state[g.gid[i]] += x
			}
		case Min:
			for i, x := range xs {
				if x < f.state[g.gid[i]] {
					f.state[g.gid[i]] = x
				}
			}
		case Max:
			for i, x := range xs {
				if x > f.state[g.gid[i]] {
					f.state[g.gid[i]] = x
				}
			}
		case P50, P99, Var, Std:
			for i, x := range xs {
				f.vals[g.gid[i]] = append(f.vals[g.gid[i]], x)
			}
		default:
			panic("telemetry: unknown aggregate")
		}
	}
}

// Table returns one row per group — the key columns, then one Float64 column
// per aggregate — ascending by key values under compareCells, groups whose
// keys compare equal (-0 and +0) in order of first appearance.
func (g *GroupAgg) Table() *Table {
	keys := make([]Column, len(g.keyCols))
	by := make([]orderKey, len(g.keyCols))
	at := make([]*Column, len(g.keyCols))
	for j, kc := range g.keyCols {
		keys[j], by[j], at[j] = kc.Column, orderKey{typ: kc.spec.Type}, &kc.Column
	}
	order := make([]int, len(g.count))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return compareRows(by, at, a, at, b) })
	cols := adopt(g.specs[:len(keys)], keys, len(order)).take(order).Columns()
	for a := range g.aggs {
		f := &g.aggs[a]
		out := make([]float64, len(order))
		for i, grp := range order {
			switch f.fn {
			case Count:
				out[i] = g.count[grp]
			case Sum, Min, Max:
				out[i] = f.state[grp]
			case Mean:
				out[i] = f.state[grp] / g.count[grp]
			case P50, P99, Var, Std:
				out[i] = f.fn.Apply(f.vals[grp])
			default:
				panic("telemetry: unknown aggregate")
			}
		}
		cols = append(cols, Column{Floats: out})
	}
	t, err := FromColumns(g.specs, cols)
	if err != nil {
		panic(err) // equal-length columns by construction
	}
	return t
}
