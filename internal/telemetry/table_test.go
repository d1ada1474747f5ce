package telemetry

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"amrtools/internal/xrand"
)

func sampleTable() *Table {
	t := NewTable(IntCol("step"), IntCol("rank"), FloatCol("wait"), StrCol("policy"))
	t.Append(0, 0, 1.5, "lpt")
	t.Append(0, 1, 2.5, "lpt")
	t.Append(1, 0, 3.0, "cdp")
	t.Append(1, 1, 5.0, "cdp")
	t.Append(2, 0, 0.5, "lpt")
	return t
}

func TestTableBasics(t *testing.T) {
	tb := sampleTable()
	if tb.NumRows() != 5 || tb.NumCols() != 4 {
		t.Fatalf("dims = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if !tb.HasCol("wait") || tb.HasCol("nope") {
		t.Fatal("HasCol wrong")
	}
	if got := tb.Ints("step")[2]; got != 1 {
		t.Fatalf("step[2] = %d", got)
	}
	if got := tb.Floats("wait")[3]; got != 5.0 {
		t.Fatalf("wait[3] = %v", got)
	}
	if got := tb.Strings("policy")[2]; got != "cdp" {
		t.Fatalf("policy[2] = %q", got)
	}
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column did not panic")
		}
	}()
	NewTable(IntCol("a"), FloatCol("a"))
}

func TestAppendTypeMismatchPanics(t *testing.T) {
	tb := NewTable(IntCol("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch did not panic")
		}
	}()
	tb.Append("not an int")
}

// TestAppendTypeMismatchText pins the three panics to the text %T gave them,
// now that the type is named without handing the value to fmt.
func TestAppendTypeMismatchText(t *testing.T) {
	for _, c := range []struct {
		col  ColSpec
		v    interface{}
		want string
	}{
		{IntCol("a"), "x", `telemetry: column "a" wants int64, got string`},
		{IntCol("a"), 1.5, `telemetry: column "a" wants int64, got float64`},
		{IntCol("a"), nil, `telemetry: column "a" wants int64, got <nil>`},
		{FloatCol("f"), int64(1), `telemetry: column "f" wants float64, got int64`},
		{FloatCol("f"), []byte("x"), `telemetry: column "f" wants float64, got []uint8`},
		{StrCol("s"), 7, `telemetry: column "s" wants string, got int`},
		{StrCol("s"), nil, `telemetry: column "s" wants string, got <nil>`},
		{StrCol("s"), &c0, `telemetry: column "s" wants string, got *telemetry.ColSpec`},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != c.want || got != fmt.Sprintf("telemetry: column %q wants %s, got %T", c.col.Name, c.col.Type, c.v) {
					t.Errorf("Append(%#v) to %s panicked with %q, want %q", c.v, c.col.Name, got, c.want)
				}
			}()
			NewTable(c.col).Append(c.v)
		}()
	}
}

var c0 ColSpec

// TestAppendDoesNotBox: a row of runtime values costs no allocation of its
// own — what remains is slice growth. (When the error path handed the boxed
// value to fmt, escape analysis moved every argument of every caller to the
// heap: three or four allocations per row.)
func TestAppendDoesNotBox(t *testing.T) {
	const rows = 100000
	names := []string{"lpt", "cdp", "cpl50"}
	tb := NewTable(IntCol("big"), IntCol("i"), FloatCol("f"), StrCol("s"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rows; i++ {
		tb.Append(int64(i)+1000, int64(i), float64(i)*0.5, names[i%len(names)])
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / rows; per >= 0.1 {
		t.Fatalf("%.2f allocations per appended row, want < 0.1", per)
	}
	if tb.NumRows() != rows || tb.Ints("big")[rows-1] != rows+999 || tb.Strings("s")[4] != "cdp" {
		t.Fatal("rows did not land")
	}
}

func TestAppendArityPanics(t *testing.T) {
	tb := NewTable(IntCol("a"), IntCol("b"))
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	tb.Append(1)
}

func TestIntAcceptsGoInt(t *testing.T) {
	tb := NewTable(IntCol("a"), FloatCol("b"))
	tb.Append(5, 7) // int → int64, int → float64
	if tb.Ints("a")[0] != 5 || tb.Floats("b")[0] != 7 {
		t.Fatal("int coercion failed")
	}
}

func TestNumericAt(t *testing.T) {
	tb := sampleTable()
	if v := tb.NumericAt("step", 1); v != 0 {
		t.Fatalf("NumericAt(step,1) = %v", v)
	}
	if v := tb.NumericAt("wait", 1); v != 2.5 {
		t.Fatalf("NumericAt(wait,1) = %v", v)
	}
	if v := tb.NumericAt("policy", 0); !math.IsNaN(v) {
		t.Fatalf("string NumericAt = %v, want NaN", v)
	}
}

func TestFilter(t *testing.T) {
	tb := sampleTable()
	lpt := tb.Filter(func(r int) bool { return tb.ValueAt("policy", r) == "lpt" })
	if lpt.NumRows() != 3 {
		t.Fatalf("filter rows = %d", lpt.NumRows())
	}
}

func TestSelect(t *testing.T) {
	tb := sampleTable().Select("rank", "wait")
	if tb.NumCols() != 2 || tb.NumRows() != 5 {
		t.Fatalf("select dims = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if tb.Schema()[0].Name != "rank" {
		t.Fatal("select order wrong")
	}
}

func TestSortByAndHead(t *testing.T) {
	tb := sampleTable().SortBy("wait", true)
	ws := tb.Floats("wait")
	for i := 1; i < len(ws); i++ {
		if ws[i] > ws[i-1] {
			t.Fatalf("not sorted desc: %v", ws)
		}
	}
	h := tb.Head(2)
	if h.NumRows() != 2 || h.Floats("wait")[0] != 5.0 {
		t.Fatalf("head wrong: %v", h.Floats("wait"))
	}
	if tb.Head(100).NumRows() != 5 {
		t.Fatal("head overflow wrong")
	}
}

func TestSortByString(t *testing.T) {
	tb := sampleTable().SortBy("policy", false)
	ps := tb.Strings("policy")
	if ps[0] != "cdp" || ps[len(ps)-1] != "lpt" {
		t.Fatalf("string sort wrong: %v", ps)
	}
}

func TestGroupBySumCount(t *testing.T) {
	tb := sampleTable()
	g := tb.GroupBy([]string{"policy"}, []AggSpec{
		{Func: Sum, Col: "wait"},
		{Func: Count},
		{Func: Max, Col: "wait", As: "peak"},
	})
	if g.NumRows() != 2 {
		t.Fatalf("groups = %d", g.NumRows())
	}
	// Sorted by key: cdp first.
	if g.Strings("policy")[0] != "cdp" {
		t.Fatal("group order wrong")
	}
	if got := g.Floats("sum_wait")[0]; got != 8.0 {
		t.Fatalf("cdp sum = %v", got)
	}
	if got := g.Floats("count")[1]; got != 3 {
		t.Fatalf("lpt count = %v", got)
	}
	if got := g.Floats("peak")[1]; got != 2.5 {
		t.Fatalf("lpt peak = %v", got)
	}
}

func TestGroupByMultiKey(t *testing.T) {
	tb := sampleTable()
	g := tb.GroupBy([]string{"policy", "rank"}, []AggSpec{{Func: Mean, Col: "wait"}})
	if g.NumRows() != 4 {
		t.Fatalf("groups = %d", g.NumRows())
	}
	// cdp/0, cdp/1, lpt/0, lpt/1 in order.
	if g.Strings("policy")[0] != "cdp" || g.Ints("rank")[0] != 0 {
		t.Fatal("multi-key order wrong")
	}
	if got := g.Floats("mean_wait")[2]; got != 1.0 { // lpt rank0: (1.5+0.5)/2
		t.Fatalf("lpt/0 mean = %v", got)
	}
}

func TestGroupByStringAggPanics(t *testing.T) {
	tb := sampleTable()
	defer func() {
		if recover() == nil {
			t.Fatal("aggregate over string did not panic")
		}
	}()
	tb.GroupBy([]string{"rank"}, []AggSpec{{Func: Sum, Col: "policy"}})
}

func TestAggFuncs(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := map[AggFunc]float64{
		Count: 4, Sum: 10, Mean: 2.5, Min: 1, Max: 4, P50: 2.5,
	}
	for f, want := range cases {
		if got := f.Apply(xs); math.Abs(got-want) > 1e-12 {
			t.Errorf("%v(xs) = %v, want %v", f, got, want)
		}
	}
	if got := Var.Apply(xs); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("var = %v", got)
	}
	// Empty input safety.
	for _, f := range []AggFunc{Count, Sum, Mean, Min, Max, P50, P99, Var, Std} {
		_ = f.Apply(nil)
	}
}

func TestAggByName(t *testing.T) {
	for _, n := range []string{"sum", "AVG", "p99", "stddev", "count"} {
		if _, ok := AggByName(n); !ok {
			t.Errorf("AggByName(%q) failed", n)
		}
	}
	if _, ok := AggByName("frobnicate"); ok {
		t.Error("bogus aggregate accepted")
	}
}

func TestCorrelate(t *testing.T) {
	tb := NewTable(FloatCol("x"), FloatCol("y"))
	for i := 0; i < 20; i++ {
		tb.Append(float64(i), 3*float64(i)+1)
	}
	if c := tb.Correlate("x", "y"); math.Abs(c-1) > 1e-12 {
		t.Fatalf("corr = %v", c)
	}
}

func TestRender(t *testing.T) {
	s := sampleTable().Render(3)
	if !strings.Contains(s, "policy") || !strings.Contains(s, "more rows") {
		t.Fatalf("render output:\n%s", s)
	}
	full := sampleTable().Render(0)
	if strings.Contains(full, "more rows") {
		t.Fatal("full render truncated")
	}
}

// Property: Filter(true) preserves everything; Filter then Count equals
// manual count.
func TestFilterProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		tb := NewTable(IntCol("v"))
		n := rng.Intn(100)
		want := 0
		for i := 0; i < n; i++ {
			v := rng.Intn(10)
			if v >= 5 {
				want++
			}
			tb.Append(v)
		}
		got := tb.Filter(func(r int) bool { return tb.Ints("v")[r] >= 5 })
		return got.NumRows() == want &&
			tb.Filter(func(int) bool { return true }).NumRows() == n
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: GroupBy Sum over a single Int key partitions the total.
func TestGroupBySumPartitionProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		tb := NewTable(IntCol("k"), FloatCol("v"))
		total := 0.0
		for i := 0; i < 200; i++ {
			v := rng.Float64()
			total += v
			tb.Append(rng.Intn(7), v)
		}
		g := tb.GroupBy([]string{"k"}, []AggSpec{{Func: Sum, Col: "v"}})
		sum := 0.0
		for _, v := range g.Floats("sum_v") {
			sum += v
		}
		return math.Abs(sum-total) < 1e-9
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestColTypeStrings(t *testing.T) {
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Fatal("ColType strings wrong")
	}
	if ColType(99).String() != "unknown" {
		t.Fatal("unknown ColType string wrong")
	}
}

func TestAggFuncStrings(t *testing.T) {
	want := map[AggFunc]string{
		Count: "count", Sum: "sum", Mean: "mean", Min: "min", Max: "max",
		P50: "p50", P99: "p99", Var: "var", Std: "std",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%v.String() = %q, want %q", int(f), f.String(), s)
		}
	}
	if AggFunc(99).String() != "unknown" {
		t.Error("unknown AggFunc string wrong")
	}
}
