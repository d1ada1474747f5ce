package telemetry_test

// The row kernels against a reference that does not share them. Every
// operator that moves rows is a view or a gather-append (table.go); the
// loops they replaced live on here as refTake and refPick — NewTable plus
// one boxed Append(ValueAt...) per row — and a seeded property test holds
// the operators to them cell for cell and, through colfile.WriteTable, byte
// for byte.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
	"amrtools/internal/xrand"
)

// refPick is the row-at-a-time reference: rows of t, in order, restricted
// to the named columns.
func refPick(t *telemetry.Table, names []string, rows []int) *telemetry.Table {
	specs := make([]telemetry.ColSpec, len(names))
	for i, n := range names {
		s, err := t.ColDescr(n)
		if err != nil {
			panic(err)
		}
		specs[i] = s
	}
	out := telemetry.NewTable(specs...)
	vals := make([]interface{}, len(names))
	for _, r := range rows {
		for i, n := range names {
			vals[i] = t.ValueAt(n, r)
		}
		out.Append(vals...)
	}
	return out
}

func colNames(t *telemetry.Table) []string {
	names := make([]string, t.NumCols())
	for i, s := range t.Schema() {
		names[i] = s.Name
	}
	return names
}

func rowRange(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		rows = append(rows, r)
	}
	return rows
}

// refTake is refPick over every column.
func refTake(t *telemetry.Table, rows []int) *telemetry.Table { return refPick(t, colNames(t), rows) }

// refLess states the documented ascending order over two boxed cells of one
// type, on its own terms rather than the product comparator's: ints and
// strings by <, floats by < with every NaN below every number and no NaN
// below another. -0 and +0 are equal under <, so neither is below the other.
func refLess(x, y interface{}) bool {
	switch a := x.(type) {
	case int64:
		return a < y.(int64)
	case float64:
		b := y.(float64)
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.IsNaN(a) && !math.IsNaN(b)
		}
		return a < b
	default:
		return a.(string) < y.(string)
	}
}

// refSorted is the order SortBy must produce, computed from boxed cells: the
// stable sort under refLess, or under its converse for desc — which moves NaN
// to the end and still leaves equal cells in row order.
func refSorted(t *telemetry.Table, name string, desc bool) []int {
	idx := rowRange(0, t.NumRows())
	sort.SliceStable(idx, func(i, j int) bool {
		x, y := t.ValueAt(name, idx[i]), t.ValueAt(name, idx[j])
		if desc {
			x, y = y, x
		}
		return refLess(x, y)
	})
	return idx
}

// sameCells is telemetry.Equal with floats compared by bit pattern: the
// drawn tables hold NaN and -0 on purpose.
func sameCells(a, b *telemetry.Table) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	bs := b.Schema()
	for i, s := range a.Schema() {
		if s != bs[i] {
			return false
		}
		for r := 0; r < a.NumRows(); r++ {
			va, vb := a.ValueAt(s.Name, r), b.ValueAt(s.Name, r)
			if f, ok := va.(float64); ok {
				va, vb = math.Float64bits(f), math.Float64bits(vb.(float64))
			}
			if va != vb {
				return false
			}
		}
	}
	return true
}

func encode(t *testing.T, tb *telemetry.Table, chunkRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := colfile.WriteTable(&buf, tb, chunkRows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustMatch requires got to equal the reference cell for cell and to encode
// to the same file at every chunk size — the second is what catches a
// dictionary that leaked into the bytes.
func mustMatch(t *testing.T, what string, got, ref *telemetry.Table) {
	t.Helper()
	if !sameCells(got, ref) {
		t.Fatalf("%s: cells differ\ngot:\n%sreference:\n%s", what, got.Render(0), ref.Render(0))
	}
	for _, chunk := range []int{1, 3, ref.NumRows(), 0} {
		if !bytes.Equal(encode(t, got, chunk), encode(t, ref, chunk)) {
			t.Fatalf("%s: WriteTable bytes differ from the reference's at chunk size %d", what, chunk)
		}
	}
}

var (
	drawInts   = []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 7, 7, -300}
	drawFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.25, 0.25, -1e300}
	drawStrs   = []string{"", "a", "a", "b", "lpt", "cdp", "z\x00z", "ü"}
)

func drawValue(rng *xrand.RNG, typ telemetry.ColType) interface{} {
	switch typ {
	case telemetry.Int64:
		return drawInts[rng.Intn(len(drawInts))]
	case telemetry.Float64:
		return drawFloats[rng.Intn(len(drawFloats))]
	default:
		return drawStrs[rng.Intn(len(drawStrs))]
	}
}

// drawTable draws a schema of 0–5 columns and 0–40 rows over the edge
// values above.
func drawTable(rng *xrand.RNG) *telemetry.Table {
	specs := make([]telemetry.ColSpec, rng.Intn(6))
	for i := range specs {
		specs[i] = telemetry.ColSpec{Name: fmt.Sprintf("c%d", i), Type: telemetry.ColType(rng.Intn(3))}
	}
	tb := telemetry.NewTable(specs...)
	rows := rng.Intn(41)
	if rng.Intn(8) == 0 {
		rows = 0
	}
	vals := make([]interface{}, len(specs))
	for r := 0; r < rows; r++ {
		for i, s := range specs {
			vals[i] = drawValue(rng, s.Type)
		}
		tb.Append(vals...)
	}
	return tb
}

// checkOperators holds every row-moving operator of tb to the reference.
// It returns the results, for the caller to recurse into and to test for
// aliasing.
func checkOperators(t *testing.T, label string, rng *xrand.RNG, tb *telemetry.Table) []*telemetry.Table {
	t.Helper()
	n, names := tb.NumRows(), colNames(tb)
	var derived []*telemetry.Table
	check := func(what string, got, ref *telemetry.Table) {
		t.Helper()
		mustMatch(t, label+" "+what, got, ref)
		derived = append(derived, got)
	}

	for _, h := range []int{-1, 0, rng.Intn(n + 1), n, n + 3} {
		check(fmt.Sprintf("Head(%d)", h), tb.Head(h), refTake(tb, rowRange(0, max(0, min(h, n)))))
	}
	lo := rng.Intn(n + 1)
	hi := lo + rng.Intn(n-lo+1)
	check(fmt.Sprintf("Slice(%d, %d)", lo, hi), tb.Slice(lo, hi), refTake(tb, rowRange(lo, hi)))

	mask := make([]bool, n)
	kept := []int{}
	for r := range mask {
		if mask[r] = rng.Intn(3) > 0; mask[r] {
			kept = append(kept, r)
		}
	}
	check("Filter", tb.Filter(func(r int) bool { return mask[r] }), refTake(tb, kept))
	check("Filter(none)", tb.Filter(func(int) bool { return false }), refTake(tb, nil))

	for _, name := range names {
		for _, desc := range []bool{false, true} {
			check(fmt.Sprintf("SortBy(%s, %v)", name, desc), tb.SortBy(name, desc), refTake(tb, refSorted(tb, name, desc)))
		}
	}
	// SortByKeys over up to three keys, in every asc/desc mix, is the stable
	// SortBy chain from the last key to the first. The drawn cells repeat and
	// hold NaN and both zeros, so keys tie and NaNs meet.
	keys := rng.Perm(len(names))[:min(3, len(names))]
	for mix := 0; mix < 1<<len(keys); mix++ {
		by := make([]telemetry.SortKey, len(keys))
		ref := tb
		for i := len(keys) - 1; i >= 0; i-- {
			by[i] = telemetry.SortKey{Col: names[keys[i]], Desc: mix&(1<<i) != 0}
			ref = refTake(ref, refSorted(ref, by[i].Col, by[i].Desc))
		}
		mustMatch(t, fmt.Sprintf("%s SortByKeys(%v)", label, by), tb.SortByKeys(by...), ref)
	}

	var some, rest []string
	picked := map[string]bool{}
	for _, i := range rng.Perm(len(names)) {
		if rng.Intn(2) == 0 {
			some = append(some, names[i])
			picked[names[i]] = true
		}
	}
	for _, name := range names {
		if !picked[name] {
			rest = append(rest, name)
		}
	}
	all := rowRange(0, n)
	check(fmt.Sprintf("Select(%v)", some), tb.Select(some...), refPick(tb, some, all))
	check(fmt.Sprintf("Without(%v)", some), tb.Without(some...), refPick(tb, rest, all))
	return derived
}

// TestKernelsMatchReference: Head, Slice, Filter, SortBy, SortByKeys,
// Select and Without — on drawn tables and again on their own results, whose
// dictionaries by then hold unused and reordered entries — equal the
// row-at-a-time reference, and so do their encoded files.
func TestKernelsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		tb := drawTable(rng)
		label := fmt.Sprintf("seed %d", seed)
		for i, d := range checkOperators(t, label, rng, tb) {
			if i%3 == int(seed%3) { // a third of the results, a different third per seed
				checkOperators(t, fmt.Sprintf("%s, derived %d:", label, i), rng, d)
			}
		}
	}
}

// freshRow is a row no drawn table holds: new strings, so an append must
// grow the dictionary.
func freshRow(tb *telemetry.Table, tag string) []interface{} {
	vals := make([]interface{}, tb.NumCols())
	for i, s := range tb.Schema() {
		switch s.Type {
		case telemetry.Int64:
			vals[i] = int64(424242)
		case telemetry.Float64:
			vals[i] = 42.5
		default:
			vals[i] = "fresh-" + tag
		}
	}
	return vals
}

// TestKernelsDoNotAlias: a view, a pick and a gather result share storage
// with their source (or might), so appending to any table must leave every
// other one exactly as it was — string columns, whose dictionary is shared
// whole, included.
func TestKernelsDoNotAlias(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		src := drawTable(rng)
		family := append(checkOperators(t, fmt.Sprintf("seed %d", seed), rng, src), src)
		snaps := make([]*telemetry.Table, len(family))
		for i, tb := range family {
			snaps[i] = refTake(tb, rowRange(0, tb.NumRows()))
		}
		// Append to each table in turn — twice, so the second append lands
		// in whatever spare capacity the first one left — and compare all
		// the others with their snapshots.
		for i, tb := range family {
			for k := 0; k < 2; k++ {
				tb.Append(freshRow(tb, fmt.Sprintf("%d-%d", i, k))...)
			}
			snaps[i] = refTake(tb, rowRange(0, tb.NumRows()))
			for j, other := range family {
				if !sameCells(other, snaps[j]) {
					t.Fatalf("seed %d: appending to table %d changed table %d\nnow:\n%swas:\n%s",
						seed, i, j, other.Render(0), snaps[j].Render(0))
				}
			}
		}
	}
}

func mustPanic(t *testing.T, what, wantText string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, wantText) {
			t.Fatalf("%s panicked with %q, want it to contain %q", what, msg, wantText)
		}
	}()
	f()
}

// TestViewEdges pins the edges the views expose: Head clamps, Slice panics
// naming the bounds.
func TestViewEdges(t *testing.T) {
	tb := telemetry.NewTable(telemetry.IntCol("a"), telemetry.StrCol("s"))
	for i := 0; i < 4; i++ {
		tb.Append(i, "x")
	}
	for n, want := range map[int]int{-5: 0, -1: 0, 0: 0, 3: 3, 4: 4, 5: 4, 1 << 40: 4} {
		if got := tb.Head(n).NumRows(); got != want {
			t.Errorf("Head(%d) has %d rows, want %d", n, got, want)
		}
	}
	if got := tb.Slice(2, 2); got.NumRows() != 0 || got.NumCols() != 2 {
		t.Errorf("Slice(2, 2) is %dx%d, want 0x2", got.NumRows(), got.NumCols())
	}
	mustPanic(t, "Slice(3, 2)", "rows [3, 2) of a table with 4", func() { tb.Slice(3, 2) })
	mustPanic(t, "Slice(-1, 2)", "rows [-1, 2) of a table with 4", func() { tb.Slice(-1, 2) })
	mustPanic(t, "Slice(0, 5)", "rows [0, 5) of a table with 4", func() { tb.Slice(0, 5) })
	mustPanic(t, "Select(nope)", `no column "nope"`, func() { tb.Select("nope") })
	mustPanic(t, "Select(a, a)", "duplicate column a", func() { tb.Select("a", "a") })
	mustPanic(t, "AppendColumns arity", "AppendColumns with 1 columns, schema has 2",
		func() { tb.AppendColumns([]telemetry.Column{{Ints: []int64{1}}}, nil) })
	mustPanic(t, "AppendColumns ragged", `column "s" has 1 rows, want 2`, func() {
		tb.AppendColumns([]telemetry.Column{{Ints: []int64{1, 2}}, {IDs: []uint32{0}, Dict: []string{"x"}}}, nil)
	})
}

// TestEmptyTablesThroughEveryOperator: zero rows, zero columns and both,
// through every operator and the writer. A zero-column table still counts
// its rows (Append with no values), and views must keep that count.
func TestEmptyTablesThroughEveryOperator(t *testing.T) {
	noRows := telemetry.NewTable(telemetry.IntCol("a"), telemetry.FloatCol("f"), telemetry.StrCol("s"))
	noCols := telemetry.NewTable()
	for i := 0; i < 3; i++ {
		noCols.Append()
	}
	for name, tb := range map[string]*telemetry.Table{"no rows": noRows, "no columns": noCols, "neither": telemetry.NewTable()} {
		n := tb.NumRows()
		for what, got := range map[string]*telemetry.Table{
			"Head(2)":     tb.Head(2),
			"Slice(0, n)": tb.Slice(0, n),
			"Select()":    tb.Select(),
			"Without()":   tb.Without(),
			"Sim()":       tb.Sim(),
			"Filter(all)": tb.Filter(func(int) bool { return true }),
		} {
			wantRows, wantCols := n, tb.NumCols()
			switch what {
			case "Head(2)":
				wantRows = min(2, n)
			case "Select()":
				wantCols = 0
			}
			if got.NumRows() != wantRows || got.NumCols() != wantCols {
				t.Errorf("%s: %s is %dx%d, want %dx%d", name, what, got.NumRows(), got.NumCols(), wantRows, wantCols)
			}
		}
		if got := tb.Filter(func(int) bool { return false }); got.NumRows() != 0 {
			t.Errorf("%s: Filter(none) kept %d rows", name, got.NumRows())
		}
		if got := tb.GroupBy(nil, []telemetry.AggSpec{{Func: telemetry.Count}}); got.NumRows() != min(n, 1) {
			t.Errorf("%s: GroupBy() has %d rows", name, got.NumRows())
		}
		if !telemetry.Equal(tb, tb.Slice(0, n)) || !telemetry.Equal(tb.Sim(), tb.Head(n).Sim()) {
			t.Errorf("%s: not Equal to its own view", name)
		}
		if err := tb.WriteCSV(&bytes.Buffer{}); err != nil {
			t.Errorf("%s: WriteCSV: %v", name, err)
		}
		_ = tb.Render(0)
		_ = encode(t, tb, 2)
	}
	for _, desc := range []bool{false, true} {
		for _, col := range colNames(noRows) {
			if got := noRows.SortBy(col, desc); got.NumRows() != 0 || got.NumCols() != 3 {
				t.Errorf("SortBy(%s) of no rows is %dx%d", col, got.NumRows(), got.NumCols())
			}
		}
	}
	if got, err := telemetry.FromColumns(nil, nil); err != nil || got.NumRows() != 0 || got.NumCols() != 0 {
		t.Errorf("FromColumns(nil, nil) = %v, %v", got, err)
	}
}

// TestFromColumnsAdoptsAndValidates: the typed constructor shares the
// caller's storage without ever writing into it, and rejects ragged input.
func TestFromColumnsAdoptsAndValidates(t *testing.T) {
	specs := []telemetry.ColSpec{telemetry.IntCol("a"), telemetry.StrCol("s")}
	ints := make([]int64, 2, 8) // spare capacity an append must not write into
	ints[0], ints[1] = 10, 20
	dict := make([]string, 2, 8)
	dict[0], dict[1] = "x", "unused"
	tb, err := telemetry.FromColumns(specs, []telemetry.Column{{Ints: ints}, {IDs: []uint32{0, 0}, Dict: dict}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Append(30, "y")
	if got := tb.Strings("s"); tb.NumRows() != 3 || got[0] != "x" || got[2] != "y" || tb.Ints("a")[2] != 30 {
		t.Fatalf("after append: %d rows, s = %v", tb.NumRows(), got)
	}
	if ints[:3][2] != 0 || dict[:3][2] != "" {
		t.Fatalf("append wrote into the caller's spare capacity: %v %q", ints[:3], dict[:3])
	}
	if _, err := telemetry.FromColumns(specs, []telemetry.Column{{Ints: ints}}); err == nil {
		t.Error("FromColumns accepted 2 specs with 1 column")
	}
	if _, err := telemetry.FromColumns(specs, []telemetry.Column{{Ints: ints}, {IDs: []uint32{0}, Dict: dict}}); err == nil ||
		!strings.Contains(err.Error(), `column "s" has 1 rows, want 2`) {
		t.Errorf("ragged columns: err = %v", err)
	}
}

// TestWriteTableSharesChunks: an appended table's chunks are ChunkRows rows
// from row 0, so each slice WriteTable takes at ChunkRows is one chunk and
// writing copies no column: the writer allocates no more for the appended
// table than for the same cells adopted whole.
func TestWriteTableSharesChunks(t *testing.T) {
	const rows = 16*telemetry.ChunkRows + 100
	chunked := telemetry.NewTable(telemetry.IntCol("step"), telemetry.FloatCol("wait"), telemetry.StrCol("policy"))
	for i := 0; i < rows; i++ {
		chunked.Append(i/1000, float64(i%977)*1e-6, []string{"lpt", "cdp", "cpl50"}[i%3])
	}
	whole, err := telemetry.FromColumns(chunked.Schema(), chunked.Slice(0, rows).Columns())
	if err != nil {
		t.Fatal(err)
	}
	write := func(tb *telemetry.Table) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := colfile.WriteTable(io.Discard, tb, telemetry.ChunkRows); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	write(whole) // warm up
	base, got := write(whole), write(chunked)
	t.Logf("WriteTable of %d rows: %d B adopted whole, %d B chunked", rows, base, got)
	if copied := int64(got) - int64(base); copied > rows { // a copied chunk costs 20 B a row
		t.Errorf("writing the chunked table allocated %d B more than writing it whole: a column was copied", copied)
	}
}
