package tql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"amrtools/internal/telemetry"
)

func testTable() *telemetry.Table {
	t := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.IntCol("rank"),
		telemetry.FloatCol("wait"), telemetry.StrCol("policy"))
	rows := []struct {
		step, rank int
		wait       float64
		policy     string
	}{
		{0, 0, 1.0, "lpt"},
		{0, 1, 2.0, "lpt"},
		{1, 0, 4.0, "cdp"},
		{1, 1, 8.0, "cdp"},
		{2, 0, 16.0, "lpt"},
		{2, 1, 32.0, "cdp"},
	}
	for _, r := range rows {
		t.Append(r.step, r.rank, r.wait, r.policy)
	}
	return t
}

func mustRun(t *testing.T, q string) *telemetry.Table {
	t.Helper()
	out, err := Run(q, map[string]*telemetry.Table{"t": testTable()})
	if err != nil {
		t.Fatalf("query %q failed: %v", q, err)
	}
	return out
}

func TestSelectStar(t *testing.T) {
	out := mustRun(t, "SELECT * FROM t")
	if out.NumRows() != 6 || out.NumCols() != 4 {
		t.Fatalf("dims = %dx%d", out.NumRows(), out.NumCols())
	}
}

func TestSelectColumns(t *testing.T) {
	out := mustRun(t, "select rank, wait from t")
	if out.NumCols() != 2 || out.Schema()[0].Name != "rank" {
		t.Fatalf("schema = %v", out.Schema())
	}
}

func TestWhereNumeric(t *testing.T) {
	out := mustRun(t, "SELECT * FROM t WHERE step >= 1 AND wait < 20")
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestWhereString(t *testing.T) {
	out := mustRun(t, "SELECT * FROM t WHERE policy = 'lpt'")
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	out = mustRun(t, "SELECT * FROM t WHERE policy != 'lpt'")
	if out.NumRows() != 3 {
		t.Fatalf("!= rows = %d", out.NumRows())
	}
}

func TestWhereOrNotParens(t *testing.T) {
	out := mustRun(t, "SELECT * FROM t WHERE (step = 0 OR step = 2) AND NOT policy = 'cdp'")
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestStringEscape(t *testing.T) {
	tb := telemetry.NewTable(telemetry.StrCol("s"))
	tb.Append("it's")
	out, err := Run("SELECT * FROM t WHERE s = 'it''s'", map[string]*telemetry.Table{"t": tb})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("escaped string match failed: %d rows", out.NumRows())
	}
}

func TestGroupBySum(t *testing.T) {
	out := mustRun(t, "SELECT policy, sum(wait) AS total FROM t GROUP BY policy ORDER BY total DESC")
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	if out.Strings("policy")[0] != "cdp" || out.Floats("total")[0] != 44 {
		t.Fatalf("top group = %v/%v", out.Strings("policy")[0], out.Floats("total")[0])
	}
	if out.Floats("total")[1] != 19 {
		t.Fatalf("lpt total = %v", out.Floats("total")[1])
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	out := mustRun(t, "SELECT count(*) AS n, mean(wait) AS m, max(wait) FROM t")
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if out.Floats("n")[0] != 6 {
		t.Fatalf("count = %v", out.Floats("n")[0])
	}
	if math.Abs(out.Floats("m")[0]-10.5) > 1e-12 {
		t.Fatalf("mean = %v", out.Floats("m")[0])
	}
	if out.Floats("max_wait")[0] != 32 {
		t.Fatalf("max = %v", out.Floats("max_wait")[0])
	}
}

func TestGroupByMultiKeyOrderLimit(t *testing.T) {
	out := mustRun(t, "SELECT rank, policy, sum(wait) AS s FROM t GROUP BY rank, policy ORDER BY s DESC LIMIT 2")
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if out.Floats("s")[0] != 40 { // rank1/cdp: 8+32
		t.Fatalf("top = %v", out.Floats("s")[0])
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	out := mustRun(t, "SELECT * FROM t ORDER BY rank ASC, wait DESC")
	ranks := out.Ints("rank")
	waits := out.Floats("wait")
	if ranks[0] != 0 || waits[0] != 16 {
		t.Fatalf("first row = rank%d wait%v", ranks[0], waits[0])
	}
	if ranks[5] != 1 || waits[5] != 2 {
		t.Fatalf("last row = rank%d wait%v", ranks[5], waits[5])
	}
}

func TestLimitZero(t *testing.T) {
	out := mustRun(t, "SELECT * FROM t LIMIT 0")
	if out.NumRows() != 0 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"SELECT",                                   // truncated
		"SELECT * FROM",                            // missing table
		"SELECT nope FROM t",                       // unknown column
		"SELECT * FROM missing",                    // unknown table (Run)
		"SELECT rank FROM t WHERE bogus = 1",       // unknown where column
		"SELECT rank, sum(wait) FROM t",            // non-grouped bare column
		"SELECT sum(policy) FROM t",                // aggregate over string
		"SELECT * FROM t GROUP BY rank",            // * with group by
		"SELECT * FROM t WHERE wait = 'x'",         // type mismatch
		"SELECT * FROM t LIMIT -1",                 // bad limit (lexes as punct)
		"SELECT * FROM t WHERE wait ~ 3",           // bad char
		"SELECT sum(wait FROM t",                   // missing paren
		"SELECT mean(*) FROM t",                    // mean(*) invalid
		"SELECT * FROM t WHERE policy = 'unclosed", // unterminated string
		"SELECT * FROM t trailing",                 // trailing tokens
	}
	for _, q := range cases {
		if _, err := Run(q, map[string]*telemetry.Table{"t": testTable()}); err == nil {
			t.Errorf("query %q did not error", q)
		}
	}
}

func TestCaseInsensitiveKeywordsAndIdents(t *testing.T) {
	out := mustRun(t, "sElEcT RANK, SUM(WAIT) as S frOm t GrOuP bY rank")
	if out.NumRows() != 2 || !out.HasCol("s") {
		t.Fatalf("case-insensitive query failed: %v", out.Schema())
	}
}

func TestNumericLiteralForms(t *testing.T) {
	out := mustRun(t, "SELECT * FROM t WHERE wait >= 1.5e1")
	if out.NumRows() != 2 { // 16 and 32
		t.Fatalf("rows = %d", out.NumRows())
	}
	out = mustRun(t, "SELECT * FROM t WHERE wait < .5")
	if out.NumRows() != 0 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestIntColumnComparesAsNumber(t *testing.T) {
	out := mustRun(t, "SELECT * FROM t WHERE step = 1")
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestAggregateDefaultNames(t *testing.T) {
	out := mustRun(t, "SELECT p99(wait), count(*) FROM t")
	if !out.HasCol("p99_wait") || !out.HasCol("count") {
		t.Fatalf("default names missing: %v", out.Schema())
	}
}

func TestRenderIntegration(t *testing.T) {
	out := mustRun(t, "SELECT policy, mean(wait) FROM t GROUP BY policy")
	s := out.Render(0)
	if !strings.Contains(s, "mean_wait") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestEmptyTableQueries(t *testing.T) {
	empty := telemetry.NewTable(telemetry.IntCol("a"), telemetry.FloatCol("b"))
	out, err := Run("SELECT a, sum(b) AS s FROM t WHERE a > 0 GROUP BY a", map[string]*telemetry.Table{"t": empty})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestAllComparisonOperators(t *testing.T) {
	// Numeric: every operator over wait.
	numCases := map[string]int{
		"wait = 4":  1,
		"wait <> 4": 5,
		"wait < 4":  2,
		"wait <= 4": 3,
		"wait > 4":  3,
		"wait >= 4": 4,
	}
	for q, want := range numCases {
		out := mustRun(t, "SELECT * FROM t WHERE "+q)
		if out.NumRows() != want {
			t.Errorf("%q matched %d rows, want %d", q, out.NumRows(), want)
		}
	}
	// String: ordering operators compare lexicographically.
	strCases := map[string]int{
		"policy < 'lpt'":  3, // cdp rows
		"policy <= 'lpt'": 6,
		"policy > 'cdp'":  3,
		"policy >= 'cdp'": 6,
	}
	for q, want := range strCases {
		out := mustRun(t, "SELECT * FROM t WHERE "+q)
		if out.NumRows() != want {
			t.Errorf("%q matched %d rows, want %d", q, out.NumRows(), want)
		}
	}
}

func TestSelectAliasRename(t *testing.T) {
	out := mustRun(t, "SELECT rank AS r, wait AS w FROM t LIMIT 1")
	if !out.HasCol("r") || !out.HasCol("w") || out.HasCol("rank") {
		t.Fatalf("aliases not applied: %v", out.Schema())
	}
}

func TestGroupKeyAliasRename(t *testing.T) {
	out := mustRun(t, "SELECT policy AS p, count(*) AS n FROM t GROUP BY policy")
	if !out.HasCol("p") || !out.HasCol("n") {
		t.Fatalf("group aliases not applied: %v", out.Schema())
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
}

func TestArithmeticInWhere(t *testing.T) {
	// wait values: 1, 2, 4, 8, 16, 32 (one per row).
	cases := map[string]int{
		"wait > 2 * 4":         2, // 16, 32
		"wait >= 2 + 6":        3, // 8, 16, 32
		"wait < 32 / 2":        4, // 1, 2, 4, 8
		"wait - 1 = 0":         1, // 1
		"-wait < 0":            6, // all positive
		"wait * 2 > wait + 1":  5, // wait > 1
		"(wait + 1) * 2 >= 10": 4, // wait >= 4
	}
	for q, want := range cases {
		out := mustRun(t, "SELECT * FROM t WHERE "+q)
		if out.NumRows() != want {
			t.Errorf("%q matched %d rows, want %d", q, out.NumRows(), want)
		}
	}
	// Cross-column arithmetic: rows with wait > 10*step.
	// step 0: waits 1,2 (both > 0); step 1: 4,8 (not > 10); step 2: 16,32
	// (only 32 > 20).
	out := mustRun(t, "SELECT * FROM t WHERE wait > step * 10")
	if out.NumRows() != 3 {
		t.Errorf("cross-column arithmetic matched %d rows, want 3", out.NumRows())
	}
}

func TestArithmeticErrors(t *testing.T) {
	bad := []string{
		"SELECT * FROM t WHERE wait / 0 > 1",   // division by zero
		"SELECT * FROM t WHERE policy + 1 > 0", // string arithmetic
		"SELECT * FROM t WHERE wait + > 1",     // malformed
	}
	for _, q := range bad {
		out, err := Run(q, map[string]*telemetry.Table{"t": testTable()})
		if err == nil && out.NumRows() > 0 {
			t.Errorf("query %q succeeded with %d rows", q, out.NumRows())
		}
	}
}

// TestProjectionKeepsPlane: a projected column keeps its source's plane
// under its new name, with or without a WHERE.
func TestProjectionKeepsPlane(t *testing.T) {
	tb := telemetry.NewTable(telemetry.StrCol("spec"), telemetry.FloatCol("wall_ms").Host())
	tb.Append("a", 1.5)
	tb.Append("b", 2.5)
	for _, q := range []string{
		"SELECT spec, wall_ms FROM t",
		"SELECT spec, wall_ms FROM t WHERE wall_ms > 0",
		"SELECT spec, wall_ms AS ms FROM t ORDER BY ms LIMIT 1",
	} {
		out, err := Run(q, map[string]*telemetry.Table{"t": tb})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := out.Schema()[1].Name
		if got := out.HostCols(); len(got) != 1 || got[0] != want {
			t.Errorf("%s: HostCols = %q, want [%q]", q, got, want)
		}
	}
}

// TestAggregateKeepsPlane: a grouped query's aggregate over a host column is
// host-plane, one over a sim column and count(*) are sim, and the key keeps
// its own plane.
func TestAggregateKeepsPlane(t *testing.T) {
	tb := telemetry.NewTable(telemetry.StrCol("spec"), telemetry.FloatCol("wall_ms").Host(), telemetry.IntCol("events"))
	tb.Append("a", 1.5, int64(3))
	tb.Append("b", 2.5, int64(4))
	tb.Append("a", 0.5, int64(5))
	for q, want := range map[string][]string{
		"SELECT spec, avg(wall_ms) AS w, sum(events) AS e, count(*) AS n FROM t GROUP BY spec": {"w"},
		"SELECT max(wall_ms), min(events) FROM t WHERE events > 3":                             {"max_wall_ms"},
		"SELECT spec, count(*) FROM t GROUP BY spec ORDER BY spec LIMIT 1":                     nil,
	} {
		out, err := Run(q, map[string]*telemetry.Table{"t": tb})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := out.HostCols(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: HostCols = %q, want %q", q, got, want)
		}
	}
}
