package telemetry

import (
	"fmt"
	"testing"
)

// distinct returns n distinct strings, in order.
func distinct(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%02d", i)
	}
	return out
}

// refIntern is intern as an index alone gives it: every entry of dict
// mapped, a repeated string to its last id, a new one appended.
func refIntern(dict *[]string, s string) uint32 {
	idx := make(map[string]uint32, len(*dict))
	for id, d := range *dict {
		idx[d] = uint32(id)
	}
	if id, ok := idx[s]; ok {
		return id
	}
	*dict = append(*dict, s)
	return uint32(len(*dict) - 1)
}

// TestInternMatchesIndex: on either side of smallDict, and across it, intern
// gives every string the id the index alone gives — a repeated entry of an
// adopted dictionary included — and builds the index only past the bound.
func TestInternMatchesIndex(t *testing.T) {
	strs := distinct(3 * smallDict)
	for _, adopted := range [][]string{
		nil,
		{"s01", "s00", "s01"},                // repeats, far below the bound
		append(distinct(smallDict-1), "s01"), // repeats, at the bound
		append(distinct(smallDict+3), "s00", "s05"), // repeats, past it
	} {
		tb, err := FromColumns([]ColSpec{StrCol("s")}, []Column{{IDs: []uint32{}, Dict: adopted}})
		if err != nil {
			t.Fatal(err)
		}
		c, ref := tb.cols[0], append([]string(nil), adopted...)
		for i := range 4 * smallDict {
			s := strs[(i*7)%(i/2+1)] // new strings, one at a time, among repeats
			if got, want := c.intern(s), refIntern(&ref, s); got != want {
				t.Fatalf("adopted %q, intern #%d of %q: id %d, the index gives %d", adopted, i, s, got, want)
			}
			if indexed := c.dictID != nil; indexed != (len(c.Dict) > smallDict) {
				t.Fatalf("adopted %q: index built %v with %d entries (bound %d)", adopted, indexed, len(c.Dict), smallDict)
			}
		}
		if fmt.Sprint(c.Dict) != fmt.Sprint(ref) {
			t.Fatalf("adopted %q: dictionary %q, want %q", adopted, c.Dict, ref)
		}
	}
}

// growths returns how many allocations appending n elements one at a time
// to a nil []T makes.
func growths[T any](n int) int {
	var s []T
	k := 0
	for range n {
		if len(s) == cap(s) {
			k++
		}
		s = append(s, *new(T))
	}
	return k
}

// TestAppendSmallDictAllocatesNoIndex: building a chunk of rows whose string
// column stays within smallDict allocates what the same rows of an int
// column do, plus the dictionary's growth: no index map. (While every
// column built its map on its first append, 2 and 4 values each cost 2
// more: 19 and 20 allocations where they now take 17 and 18.)
func TestAppendSmallDictAllocatesNoIndex(t *testing.T) {
	ints := testing.AllocsPerRun(50, func() {
		tb := NewTable(IntCol("x"))
		for i := range ChunkRows {
			tb.Append(i)
		}
	})
	for _, k := range []int{2, smallDict} {
		names := distinct(k)
		strs := testing.AllocsPerRun(50, func() {
			tb := NewTable(StrCol("x"))
			for i := range ChunkRows {
				tb.Append(names[i%k])
			}
		})
		if extra, dict := int(strs-ints), growths[string](k); extra != dict {
			t.Errorf("%d values: %v allocations, %v for ints: %d more, want the dictionary's %d", k, strs, ints, extra, dict)
		}
	}
}

// TestLoneStringKeyGroupIsItsCode: under a lone String key a group's number
// is its key's code, on either side of smallDict, fed whole or in pieces
// whose chunk dictionaries differ; the aggregator holds no hash index.
func TestLoneStringKeyGroupIsItsCode(t *testing.T) {
	names := distinct(2 * smallDict)
	tb := NewTable(StrCol("s"), IntCol("i"))
	for i := range 3 * aggBlock {
		tb.Append(names[(i*i/64)%len(names)], i)
	}
	for _, feed := range []int{tb.NumRows(), 1000, 7} {
		g := NewGroupAgg(tb.Schema(), []string{"s"}, []AggSpec{{Func: Count}})
		for lo := 0; lo < tb.NumRows(); lo += feed {
			g.Add(tb.Slice(lo, min(lo+feed, tb.NumRows())).Columns(), nil)
		}
		if g.slots != nil || g.codes != nil {
			t.Fatalf("feed %d: a lone String key built a hash index", feed)
		}
		kc := g.keyCols[0]
		if len(g.count) != len(names) || len(kc.Dict) != len(names) {
			t.Fatalf("feed %d: %d groups over %d codes, want %d", feed, len(g.count), len(kc.Dict), len(names))
		}
		for grp, code := range kc.IDs {
			if code != uint32(grp) {
				t.Fatalf("feed %d: group %d has code %d", feed, grp, code)
			}
		}
	}
}

// TestLoneStringKeyAllocatesNoIndex: past its first group, an aggregator
// over a lone String key allocates only what its groups grow — their
// strings, codes and counts — and no code list. The counts are exact; with
// the hash index, 2 and 4 groups cost 1 and 2 more. (The slot array it no
// longer has is a fixed cost; TestLoneStringKeyGroupIsItsCode checks it.)
func TestLoneStringKeyAllocatesNoIndex(t *testing.T) {
	allocs := func(k int) int {
		names := distinct(k)
		tb := NewTable(StrCol("s"))
		for i := range 2 * aggBlock {
			tb.Append(names[i%k])
		}
		schema, cols := tb.Schema(), tb.Columns()
		return int(testing.AllocsPerRun(50, func() {
			g := NewGroupAgg(schema, []string{"s"}, []AggSpec{{Func: Count}})
			g.Add(cols, nil)
		}))
	}
	grow := func(k int) int { return growths[string](k) + growths[uint32](k) + growths[float64](k) }
	one := allocs(1)
	for _, k := range []int{2, smallDict} {
		if got, want := allocs(k)-one, grow(k)-grow(1); got != want {
			t.Errorf("%d groups: %d allocations more than one group, want %d", k, got, want)
		}
	}
}

// TestAggregatePlane: an aggregate's output column has its input's plane;
// count(*) and the keys keep theirs.
func TestAggregatePlane(t *testing.T) {
	tb := NewTable(StrCol("spec"), FloatCol("wall_ms").Host(), FloatCol("events"))
	tb.Append("a", 1.0, 2.0)
	tb.Append("a", 3.0, 4.0)
	got := tb.GroupBy([]string{"spec"}, []AggSpec{
		{Func: Count, As: "n"}, {Func: Mean, Col: "wall_ms"}, {Func: Max, Col: "events"},
	})
	want := []ColSpec{StrCol("spec"), FloatCol("n"), FloatCol("mean_wall_ms").Host(), FloatCol("max_events")}
	if fmt.Sprint(got.Schema()) != fmt.Sprint(want) {
		t.Fatalf("schema %v, want %v", got.Schema(), want)
	}
	if host := got.HostCols(); len(host) != 1 || host[0] != "mean_wall_ms" {
		t.Fatalf("HostCols %v, want [mean_wall_ms]", host)
	}
}

// BenchmarkAppendStrings: one string column, a million rows, of equal-length
// values — the in-place search's worst shape — from smallDict values
// (searched in place) and from more (looked up in the index): the two sides
// of the bound.
func BenchmarkAppendStrings(b *testing.B) {
	for _, k := range []int{smallDict, 2 * smallDict, 64} {
		names := distinct(k)
		b.Run(fmt.Sprintf("values=%d", k), func(b *testing.B) {
			const rows = 1 << 20
			for range b.N {
				tb := NewTable(StrCol("s"))
				for i := range rows {
					tb.Append(names[(i*7+i/3)%k])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

var groupSink *Table

// BenchmarkGroupByString: GROUP BY a lone string key of four values over a
// million rows, as telemetry_query's groupstr query has it.
func BenchmarkGroupByString(b *testing.B) {
	const rows = 1 << 20
	names := []string{"baseline", "lpt", "cdp", "cpl50"}
	tb := NewTable(StrCol("policy"), FloatCol("wait"))
	for i := range rows {
		tb.Append(names[(i*7+i/3)%len(names)], float64(i%1000)/1000)
	}
	aggs := []AggSpec{{Func: Count, As: "n"}, {Func: Mean, Col: "wait", As: "w"}}
	b.ResetTimer()
	for range b.N {
		groupSink = tb.GroupBy([]string{"policy"}, aggs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
