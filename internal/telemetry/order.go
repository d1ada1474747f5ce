package telemetry

import (
	"cmp"
	"slices"
	"strings"
)

// compareCells is the package's one order over cells — what SortBy, TopK and
// the group order of GroupBy all mean by "ascending": cell i of a against
// cell j of b, both of type typ. Ints by value; floats as cmp.Compare has
// them, a total order where NaN sorts before every number, all NaNs are
// equal and -0 equals +0 (plain < is not a strict weak order once a NaN is
// present, and a sort on it returns whatever its merges leave); strings by
// byte. Cells that compare equal are ordered by whoever calls: by row.
func compareCells(typ ColType, a *Column, i int, b *Column, j int) int {
	switch typ {
	case Int64:
		return cmp.Compare(a.Ints[i], b.Ints[j])
	case Float64:
		return cmp.Compare(a.Floats[i], b.Floats[j])
	case String:
		return strings.Compare(a.Dict[a.IDs[i]], b.Dict[b.IDs[j]])
	}
	panic("telemetry: unknown column type")
}

// SortKey is one ORDER BY term: a column, ascending unless Desc.
type SortKey struct {
	Col  string
	Desc bool
}

// orderKey is one ORDER BY term bound to a column: its type and direction.
type orderKey struct {
	typ  ColType
	desc bool
}

// compareRows is the package's one row order — what SortByKeys, TopK and
// GroupAgg.Table all sort by: row i of the columns a against row j of the
// columns b, where a[k] and b[k] hold key k, key after key under
// compareCells, a desc key reversing its column's order. 0 means every key
// ties; the caller orders ties by row.
func compareRows(keys []orderKey, a []*Column, i int, b []*Column, j int) int {
	for k, key := range keys {
		if c := compareCells(key.typ, a[k], i, b[k], j); c != 0 {
			if key.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// TopK keeps the first k rows, in order, of everything fed to it under the
// lexicographic order (keys…, arrival): exactly Head(k) of SortByKeys over
// the same rows, without holding more than k of them. Feed it
// with Add, chunk by chunk; read it with Table.
type TopK struct {
	by []orderKey
	// cols are each key's column index in the feeds' schema; feed and kept
	// hold each key's column of the current feed and of cand.
	cols       []int
	feed, kept []*Column
	k          int
	seen       int // rows fed so far: the next row's arrival ordinal
	// cand holds the kept rows by slot, copied out of the feeds (a kept row
	// must not pin the chunk it came from); arrival is each slot's ordinal.
	// Both grow as rows are kept, never ahead of them: k is a LIMIT literal
	// and may be far larger than anything fed.
	cand    *Table
	arrival []int
	// heap holds the slots; once k rows are kept it is a max-heap under
	// before, so heap[0] is the kept row every later row must beat.
	heap []int
}

// NewTopK returns an empty TopK over feeds of the given schema. An unknown
// key column panics; a negative k keeps nothing.
func NewTopK(schema []ColSpec, by []SortKey, k int) *TopK {
	h := &TopK{k: max(k, 0), cand: NewTable(schema...)}
	for _, key := range by {
		ci := schemaIndex(schema, key.Col)
		h.by = append(h.by, orderKey{typ: schema[ci].Type, desc: key.Desc})
		h.cols = append(h.cols, ci)
		h.kept = append(h.kept, &h.cand.cols[ci].Column)
	}
	h.feed = make([]*Column, len(h.by))
	return h
}

// Add feeds rows sel of cols, in sel order (a nil sel: every row), as
// AppendColumns takes them.
func (h *TopK) Add(cols []Column, sel []int) {
	n := feedRows("TopK.Add", h.cand.Schema(), cols, sel)
	first := h.seen
	h.seen += n
	if h.k == 0 {
		return
	}
	for j, ci := range h.cols {
		h.feed[j] = &cols[ci]
	}
	defer clear(h.feed) // the feed's columns must not outlive the call
	for i := 0; i < n; i++ {
		r := i
		if sel != nil {
			r = sel[i]
		}
		switch {
		case len(h.heap) < h.k:
			h.heap = append(h.heap, len(h.heap))
			h.arrival = append(h.arrival, first+i)
			h.put(len(h.heap)-1, cols, r)
			if len(h.heap) == h.k {
				for at := h.k/2 - 1; at >= 0; at-- {
					h.siftDown(at)
				}
			}
		case h.beatsWorst(r):
			h.arrival[h.heap[0]] = first + i
			h.put(h.heap[0], cols, r)
			h.siftDown(0)
		}
	}
}

// beatsWorst reports whether row r of the current feed sorts before the
// worst kept row. Strictly: r arrived after every kept row, so equal keys
// leave it behind.
func (h *TopK) beatsWorst(r int) bool {
	return compareRows(h.by, h.feed, r, h.kept, h.heap[0]) < 0
}

// before is the order kept rows come out in: keys, then arrival.
func (h *TopK) before(a, b int) int {
	if c := compareRows(h.by, h.kept, a, h.kept, b); c != 0 {
		return c
	}
	return cmp.Compare(h.arrival[a], h.arrival[b])
}

func (h *TopK) siftDown(at int) {
	for {
		worst := at
		for child := 2*at + 1; child <= 2*at+2 && child < len(h.heap); child++ {
			if h.before(h.heap[worst], h.heap[child]) < 0 {
				worst = child
			}
		}
		if worst == at {
			return
		}
		h.heap[at], h.heap[worst] = h.heap[worst], h.heap[at]
		at = worst
	}
}

// put copies row r of cols into slot, the next free one or one to overwrite.
func (h *TopK) put(slot int, cols []Column, r int) {
	for i, c := range h.cand.cols {
		switch c.spec.Type {
		case Int64:
			c.Ints = setAt(c.Ints, slot, cols[i].Ints[r])
		case Float64:
			c.Floats = setAt(c.Floats, slot, cols[i].Floats[r])
		case String:
			c.IDs = setAt(c.IDs, slot, c.intern(cols[i].Dict[cols[i].IDs[r]]))
		default:
			panic("telemetry: unknown column type")
		}
	}
	h.cand.rows = max(h.cand.rows, slot+1)
}

// setAt stores v at xs[at], appending when at is one past the end.
func setAt[T any](xs []T, at int, v T) []T {
	if at == len(xs) {
		return append(xs, v)
	}
	xs[at] = v
	return xs
}

// Table returns the kept rows in order, as a table of their own: feeding
// more rows afterwards does not change it.
func (h *TopK) Table() *Table {
	order := append([]int{}, h.heap...) // never nil: take reads nil as every row
	slices.SortFunc(order, h.before)
	return h.cand.take(order)
}
