package telemetry_test

// GroupAgg and TopK against references that do not share them. refGroupBy is
// the row loop Table.GroupBy ran before the kernel — a composite key per row,
// boxed ValueAt cells, AggFunc.Apply over each group's gathered values —
// changed only where that loop was wrong: key cells are length-prefixed (a
// NUL inside a string used to splice two keys into one) and groups come out
// in the documented order (refLess; the old < left NaN keys wherever the sort
// dropped them). refTopK is the stable sort chain plus Head that ORDER BY …
// LIMIT is defined as.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"amrtools/internal/telemetry"
	"amrtools/internal/xrand"
)

func refOutName(a telemetry.AggSpec) string {
	if a.As != "" {
		return a.As
	}
	if a.Col == "" {
		return a.Func.String()
	}
	return a.Func.String() + "_" + a.Col
}

func refGroupBy(t *telemetry.Table, keys []string, aggs []telemetry.AggSpec) *telemetry.Table {
	// Output schema.
	specs := make([]telemetry.ColSpec, 0, len(keys)+len(aggs))
	for _, k := range keys {
		s, err := t.ColDescr(k)
		if err != nil {
			panic(err)
		}
		specs = append(specs, s)
	}
	for _, a := range aggs {
		specs = append(specs, telemetry.FloatCol(refOutName(a)))
	}

	// Group rows by composite key.
	groups := make(map[string][]int)
	var order []string
	for r := 0; r < t.NumRows(); r++ {
		var sb strings.Builder
		for _, k := range keys {
			cell := fmt.Sprintf("%v", t.ValueAt(k, r))
			fmt.Fprintf(&sb, "%d:%s", len(cell), cell)
		}
		key := sb.String()
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], r)
	}
	// Sort groups by their key values (via the first row of each group);
	// stably, so groups whose keys compare equal stay in first-appearance order.
	sort.SliceStable(order, func(i, j int) bool {
		ri, rj := groups[order[i]][0], groups[order[j]][0]
		for _, k := range keys {
			vi, vj := t.ValueAt(k, ri), t.ValueAt(k, rj)
			if refLess(vi, vj) || refLess(vj, vi) {
				return refLess(vi, vj)
			}
		}
		return false
	})

	out := telemetry.NewTable(specs...)
	for _, key := range order {
		rows := groups[key]
		vals := make([]interface{}, 0, len(specs))
		for _, k := range keys {
			vals = append(vals, t.ValueAt(k, rows[0]))
		}
		for _, a := range aggs {
			xs := make([]float64, len(rows))
			if a.Func != telemetry.Count {
				for i, r := range rows {
					xs[i] = t.NumericAt(a.Col, r)
				}
			}
			vals = append(vals, a.Func.Apply(xs))
		}
		out.Append(vals...)
	}
	return out
}

// refTopK is ORDER BY by… LIMIT k by definition: the stable sorts, last key
// first, then the first k rows.
func refTopK(t *telemetry.Table, by []telemetry.SortKey, k int) *telemetry.Table {
	cur := t
	for i := len(by) - 1; i >= 0; i-- {
		cur = refTake(cur, refSorted(cur, by[i].Col, by[i].Desc))
	}
	return refTake(cur, rowRange(0, max(0, min(k, cur.NumRows()))))
}

// subsets returns every subset of names of at most three elements, in order.
func subsets(names []string) [][]string {
	out := [][]string{nil}
	for mask := 1; mask < 1<<len(names); mask++ {
		var sub []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				sub = append(sub, n)
			}
		}
		if len(sub) <= 3 {
			out = append(out, sub)
		}
	}
	return out
}

// allAggs is count(*) plus every aggregate over every numeric column of tb.
func allAggs(tb *telemetry.Table) []telemetry.AggSpec {
	aggs := []telemetry.AggSpec{{Func: telemetry.Count}}
	for _, s := range tb.Schema() {
		if s.Type == telemetry.String {
			continue
		}
		for f := telemetry.Count; f <= telemetry.Std; f++ {
			aggs = append(aggs, telemetry.AggSpec{Func: f, Col: s.Name})
		}
	}
	return aggs
}

// feed is one Add call's arguments.
type feed struct {
	cols []telemetry.Column
	sel  []int
}

// feeds cuts the rows of tb into the feeds one check drives a kernel with:
// whole, in chunks of 1 and 3 (views: their dictionaries hold entries the
// chunk does not use), and through sel — all rows in two halves split
// mid-table, which is where a tie or a group straddles two feeds.
func feeds(tb *telemetry.Table) map[string][]feed {
	n := tb.NumRows()
	out := map[string][]feed{"whole": {{tb.Columns(), nil}}}
	for _, size := range []int{1, 3} {
		var fs []feed
		for lo := 0; lo < n; lo += size {
			fs = append(fs, feed{tb.Slice(lo, min(lo+size, n)).Columns(), nil})
		}
		out[fmt.Sprintf("chunks of %d", size)] = fs
	}
	all := rowRange(0, n)
	out["sel halves"] = []feed{{tb.Columns(), all[:n/2]}, {tb.Columns(), all[n/2:]}}
	return out
}

// sameGroups is sameCells with every NaN equal to every other: which payload
// survives when a running sum that is already NaN (Inf - Inf) meets a NaN cell
// is the adder's choice by operand order, and two compilations of s += x need
// not agree on it. Everything else — the zeros' signs included — is by bit.
func sameGroups(a, b *telemetry.Table) bool {
	canon := func(t *telemetry.Table) *telemetry.Table {
		cols := t.Columns()
		for i, s := range t.Schema() {
			if s.Type != telemetry.Float64 {
				continue
			}
			fs := append([]float64(nil), cols[i].Floats...)
			for r, f := range fs {
				if math.IsNaN(f) {
					fs[r] = math.NaN()
				}
			}
			cols[i].Floats = fs
		}
		out, err := telemetry.FromColumns(t.Schema(), cols)
		if err != nil {
			panic(err)
		}
		return out
	}
	return sameCells(canon(a), canon(b))
}

func mustSameGroups(t *testing.T, what string, got, ref *telemetry.Table) {
	t.Helper()
	if !sameGroups(got, ref) {
		t.Fatalf("%s:\n%sreference:\n%s", what, got.Render(0), ref.Render(0))
	}
}

func TestGroupByMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		tb := drawTable(rng)
		n := tb.NumRows()
		aggs := allAggs(tb)
		// The drawn table, a view of it and a gather of it: the last two carry
		// dictionaries with unused and reordered entries.
		lo := rng.Intn(n + 1)
		inputs := map[string]*telemetry.Table{"drawn": tb, "view": tb.Slice(lo, lo+rng.Intn(n-lo+1))}
		if names := colNames(tb); len(names) > 0 {
			inputs["gather"] = tb.SortBy(names[rng.Intn(len(names))], rng.Intn(2) == 0)
		}
		for kind, in := range inputs {
			for _, keys := range subsets(colNames(in)) {
				label := fmt.Sprintf("seed %d, %s, GROUP BY %v", seed, kind, keys)
				ref := refGroupBy(in, keys, aggs)
				mustSameGroups(t, label, in.GroupBy(keys, aggs), ref)
				if in.NumCols() == 0 {
					continue // nothing to cut into feeds
				}
				for how, fs := range feeds(in) {
					g := telemetry.NewGroupAgg(in.Schema(), keys, aggs)
					for _, f := range fs {
						g.Add(f.cols, f.sel)
					}
					mustSameGroups(t, label+" fed as "+how, g.Table(), ref)
				}
				// A sel that drops and reorders rows is a different table: the
				// reference groups what refTake makes of it.
				sel := rng.Perm(in.NumRows())[:rng.Intn(in.NumRows()+1)]
				g := telemetry.NewGroupAgg(in.Schema(), keys, aggs)
				g.Add(in.Columns(), sel[:len(sel)/2])
				g.Add(in.Columns(), sel[len(sel)/2:])
				mustSameGroups(t, fmt.Sprintf("%s over sel %v", label, sel), g.Table(), refGroupBy(refTake(in, sel), keys, aggs))
			}
		}
	}
}

// TestGroupByRepeatedDictionaryEntries: a foreign file may spell one string
// out twice in a chunk's dictionary; both ids are one group, and an entry no
// row uses is none.
func TestGroupByRepeatedDictionaryEntries(t *testing.T) {
	specs := []telemetry.ColSpec{telemetry.StrCol("s"), telemetry.FloatCol("x")}
	tb, err := telemetry.FromColumns(specs, []telemetry.Column{
		{IDs: []uint32{2, 0, 1, 4, 0}, Dict: []string{"a", "b", "a", "unused", "b"}},
		{Floats: []float64{1, 2, 4, 8, 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	aggs := []telemetry.AggSpec{{Func: telemetry.Count, As: "n"}, {Func: telemetry.Sum, Col: "x", As: "sum"}}
	got := tb.GroupBy([]string{"s"}, aggs)
	want := telemetry.NewTable(telemetry.StrCol("s"), telemetry.FloatCol("n"), telemetry.FloatCol("sum"))
	want.Append("a", 3.0, 19.0)
	want.Append("b", 2.0, 12.0)
	mustMatch(t, "GroupBy", got, want)
	mustMatch(t, "reference", refGroupBy(tb, []string{"s"}, aggs), want)
}

// TestGroupByNULKeys: ("p\x00q", "r") and ("p", "q\x00r") are two groups.
// The fmt key "%v\x00" per cell made them one of count 2.
func TestGroupByNULKeys(t *testing.T) {
	tb := telemetry.NewTable(telemetry.StrCol("a"), telemetry.StrCol("b"))
	tb.Append("p\x00q", "r")
	tb.Append("p", "q\x00r")
	got := tb.GroupBy([]string{"a", "b"}, []telemetry.AggSpec{{Func: telemetry.Count, As: "n"}})
	want := telemetry.NewTable(telemetry.StrCol("a"), telemetry.StrCol("b"), telemetry.FloatCol("n"))
	want.Append("p", "q\x00r", 1.0)
	want.Append("p\x00q", "r", 1.0)
	if !telemetry.Equal(got, want) {
		t.Fatalf("got\n%swant\n%s", got.Render(0), want.Render(0))
	}
}

// TestNaNOrder pins the one total order where < has none: NaN before every
// number ascending and after descending, NaNs of any payload equal and so in
// row order, the two zeros likewise — and the same order for groups, where
// every NaN is one group (keyed by its first row) and the zeros are two.
func TestNaNOrder(t *testing.T) {
	nan, nan2, negZero := math.NaN(), math.Float64frombits(0x7ff800000000beef), math.Copysign(0, -1)
	tb := telemetry.NewTable(telemetry.FloatCol("x"))
	for _, x := range []float64{3, nan2, 1, nan, 2, 0, negZero} {
		tb.Append(x)
	}
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s = %v, want %v (cell %d is %#x)", what, got, want, i, math.Float64bits(got[i]))
			}
		}
	}
	sameBits("ascending", tb.SortBy("x", false).Floats("x"), []float64{nan2, nan, 0, negZero, 1, 2, 3})
	sameBits("descending", tb.SortBy("x", true).Floats("x"), []float64{3, 2, 1, 0, negZero, nan2, nan})
	g := tb.GroupBy([]string{"x"}, []telemetry.AggSpec{{Func: telemetry.Count, As: "n"}})
	sameBits("group keys", g.Floats("x"), []float64{nan2, 0, negZero, 1, 2, 3})
	sameBits("group counts", g.Floats("n"), []float64{2, 1, 1, 1, 1, 1})
}

func TestTopKMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		tb := drawTable(rng)
		names, n := colNames(tb), tb.NumRows()
		if len(names) == 0 {
			continue
		}
		for nkeys := 1; nkeys <= min(3, len(names)); nkeys++ {
			cols := rng.Perm(len(names))[:nkeys]
			for mix := 0; mix < 1<<nkeys; mix++ { // every asc/desc assignment
				by := make([]telemetry.SortKey, nkeys)
				for i, c := range cols {
					by[i] = telemetry.SortKey{Col: names[c], Desc: mix&(1<<i) != 0}
				}
				for _, k := range []int{0, 1, n - 1, n, n + 3} {
					label := fmt.Sprintf("seed %d, ORDER BY %v LIMIT %d", seed, by, k)
					ref := refTopK(tb, by, k)
					for how, fs := range feeds(tb) {
						h := telemetry.NewTopK(tb.Schema(), by, k)
						for _, f := range fs {
							h.Add(f.cols, f.sel)
						}
						mustMatch(t, label+" fed as "+how, h.Table(), ref)
					}
					sel := rng.Perm(n)[:rng.Intn(n+1)]
					h := telemetry.NewTopK(tb.Schema(), by, k)
					h.Add(tb.Columns(), sel[:len(sel)/2])
					h.Add(tb.Columns(), sel[len(sel)/2:])
					mustMatch(t, fmt.Sprintf("%s over sel %v", label, sel), h.Table(), refTopK(refTake(tb, sel), by, k))
				}
			}
		}
	}
}

// TestTopKTableIsItsOwn: the result holds no storage the kernel goes on
// writing, and a huge k costs nothing until rows arrive.
func TestTopKTableIsItsOwn(t *testing.T) {
	tb := telemetry.NewTable(telemetry.IntCol("a"), telemetry.StrCol("s"))
	for i := 0; i < 6; i++ {
		tb.Append(10-i, fmt.Sprint("s", i))
	}
	h := telemetry.NewTopK(tb.Schema(), []telemetry.SortKey{{Col: "a"}}, 1<<60)
	h.Add(tb.Slice(0, 3).Columns(), nil)
	first := h.Table()
	snap := refTake(first, rowRange(0, first.NumRows()))
	h.Add(tb.Slice(3, 6).Columns(), nil)
	if !sameCells(first, snap) {
		t.Fatalf("a later Add changed an earlier result:\n%swas:\n%s", first.Render(0), snap.Render(0))
	}
	mustMatch(t, "after the second feed", h.Table(), refTake(tb, []int{5, 4, 3, 2, 1, 0}))
}

var (
	// Well past the entries a column searches in place, so a key column can
	// cross into the indexed regime mid-feed.
	fuzzGroupStrs = []string{
		"lpt", "cdp", "", "z\x00z", "z", "\x00z", "cpl50", "baseline",
		"s08", "s09", "s10", "s11", "s12", "s13", "s14", "s15", "s16", "s17", "s18", "s19",
	}
	fuzzGroupFloats = map[byte]float64{
		0x80: math.NaN(), 0x81: math.Float64frombits(0x7ff800000000beef),
		0x7f: math.Inf(1), 0x82: math.Inf(-1), 0x83: math.Copysign(0, -1),
	}
)

// fuzzGroupInput derives FuzzGroupBy's table, grouping and feed size from fuzz
// input, by the rule tql's fuzzShape uses with the grouping taken off the end:
//
//	data[0] % 9        rows per feed (0: one feed)
//	data[1] % 6 + 1    columns c0, c1, …
//	next n bytes % 3   their types
//	the last 3 bytes   key columns (bit i: column i, the first three set), then
//	                   nine bits of aggregate functions, each over every
//	                   numeric column; count(*) always
//	the rest           cells in row order, one byte each, at most 64 rows
//
// An int cell is its byte as an int8; a float cell that over 4, but for the
// five bytes of fuzzGroupFloats — two NaN payloads, the infinities and -0; a
// string cell picks from fuzzGroupStrs. Missing bytes read as zero.
func fuzzGroupInput(data []byte) (tb *telemetry.Table, keys []string, aggs []telemetry.AggSpec, feedRows int) {
	var tail [3]byte
	if len(data) >= 3 {
		copy(tail[:], data[len(data)-3:])
		data = data[:len(data)-3]
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	feedRows = int(next() % 9)
	specs := make([]telemetry.ColSpec, next()%6+1)
	for i := range specs {
		specs[i] = telemetry.ColSpec{Name: fmt.Sprintf("c%d", i), Type: telemetry.ColType(next() % 3)}
	}
	tb = telemetry.NewTable(specs...)
	vals := make([]interface{}, len(specs))
	for rows := 0; len(data) > 0 && rows < 64; rows++ {
		for i, s := range specs {
			switch b := next(); s.Type {
			case telemetry.Int64:
				vals[i] = int64(int8(b))
			case telemetry.Float64:
				if f, special := fuzzGroupFloats[b]; special {
					vals[i] = f
				} else {
					vals[i] = float64(int8(b)) / 4
				}
			default:
				vals[i] = fuzzGroupStrs[int(b)%len(fuzzGroupStrs)]
			}
		}
		tb.Append(vals...)
	}
	for i, s := range specs {
		if tail[0]&(1<<i) != 0 && len(keys) < 3 {
			keys = append(keys, s.Name)
		}
	}
	aggs = []telemetry.AggSpec{{Func: telemetry.Count}}
	for f := telemetry.Count; f <= telemetry.Std; f++ {
		if (uint(tail[1])|uint(tail[2])<<8)&(1<<f) == 0 {
			continue
		}
		for _, s := range specs {
			if s.Type != telemetry.String {
				aggs = append(aggs, telemetry.AggSpec{Func: f, Col: s.Name})
			}
		}
	}
	return tb, keys, aggs, feedRows
}

// FuzzGroupBy: the kernel agrees with refGroupBy on whatever table and
// grouping the input spells, and feeding the table in pieces changes not one
// bit of what feeding it whole gives.
func FuzzGroupBy(f *testing.F) {
	f.Add([]byte{2, 2, 2, 1, 0, 0, 1, 4, 1, 12, 1, 0, 0xfc, 1, 0xff, 0x01})      // GROUP BY a string, every aggregate
	f.Add([]byte{1, 0, 1, 0x80, 0x81, 0x83, 0, 0x7f, 0x82, 0x80, 1, 0x1e, 0})    // a float key: NaNs, zeros, infinities
	f.Add([]byte{3, 2, 2, 2, 0, 3, 4, 1, 4, 3, 2, 3, 3, 3, 5, 0, 4, 3, 0xfe, 1}) // NUL strings under two keys
	f.Add([]byte{0, 0, 0, 7, 7, 0x80, 0, 0xff, 0xff})                            // no keys
	// A lone string key over sixteen values, fed three rows at a time.
	f.Add([]byte{3, 0, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 9, 1, 1, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, keys, aggs, feedRows := fuzzGroupInput(data)
		whole := tb.GroupBy(keys, aggs)
		mustSameGroups(t, fmt.Sprintf("GROUP BY %v of\n%s", keys, tb.Render(0)), whole, refGroupBy(tb, keys, aggs))
		if feedRows == 0 {
			return
		}
		g := telemetry.NewGroupAgg(tb.Schema(), keys, aggs)
		for lo := 0; lo < tb.NumRows(); lo += feedRows {
			g.Add(tb.Slice(lo, min(lo+feedRows, tb.NumRows())).Columns(), nil)
		}
		if got := g.Table(); !sameCells(got, whole) {
			t.Fatalf("GROUP BY %v fed %d rows at a time:\n%sfed whole:\n%s", keys, feedRows, got.Render(0), whole.Render(0))
		}
	})
}
