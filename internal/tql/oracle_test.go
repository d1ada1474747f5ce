package tql

import (
	"fmt"
	"math"
	"sort"

	"amrtools/internal/telemetry"
)

// The differential oracle: a row-at-a-time interpreter, the reference
// implementation the corpus and the fuzzer compare both sources against.
// It evaluates the WHERE AST one row at a time with Go's own
// short-circuit order and dynamic typing, and moves rows — the filter, the
// projection, ORDER BY, LIMIT — one boxed cell at a time through refProject,
// sharing neither the WHERE kernels nor the table's view and gather kernels
// with the executor it checks. What it does share is bind (it is only
// consulted for queries that bind) and the aggregate kernel: it calls one-shot
// Table.GroupBy on reference-moved rows, so what it holds the executor to is
// the chunked feed and the sink wiring; the kernel itself answers to
// refGroupBy in internal/telemetry.

// oracleMatch returns the rows of t the WHERE clause keeps, in row order,
// evaluated one row at a time; it fails with the first evaluation error.
func oracleMatch(q *Query, t *telemetry.Table) ([]int, error) {
	rows := make([]int, 0, t.NumRows())
	for row := 0; row < t.NumRows(); row++ {
		ok := true
		if q.Where != nil {
			var err error
			if ok, err = asBool(q.Where, t, row); err != nil {
				return nil, err
			}
		}
		if ok {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// oracleExec runs q over t through the row interpreter. It fails with the
// first evaluation error in row order.
func oracleExec(q *Query, t *telemetry.Table) (*telemetry.Table, error) {
	b, err := bind(q, t.Schema())
	if err != nil {
		return nil, fmt.Errorf("oracle consulted for a query that does not bind: %w", err)
	}
	rows, err := oracleMatch(q, t)
	if err != nil {
		return nil, err
	}
	cur := refTake(t, rows)
	if !q.Star {
		if b.grouped {
			cur = cur.GroupBy(b.keys, b.aggs)
		}
		cur = refProject(cur, b.src, b.out, allRows(cur))
	}
	for i := len(q.OrderBy) - 1; i >= 0; i-- { // stable multi-key sort
		cur = refTake(cur, refSorted(cur, q.OrderBy[i].Col, q.OrderBy[i].Desc))
	}
	if q.Limit >= 0 && q.Limit < cur.NumRows() {
		cur = refTake(cur, allRows(cur)[:q.Limit])
	}
	return cur, nil
}

// refProject is the row-at-a-time reference for every way the executor
// moves rows: a new table whose i-th column is t's column src[i] under the
// name out[i], holding the given rows in order, built by one boxed
// Append(ValueAt...) per row.
func refProject(t *telemetry.Table, src, out []string, rows []int) *telemetry.Table {
	specs := make([]telemetry.ColSpec, len(src))
	for i, name := range src {
		s, err := t.ColDescr(name)
		if err != nil {
			panic(err)
		}
		specs[i] = telemetry.ColSpec{Name: out[i], Type: s.Type}
	}
	res := telemetry.NewTable(specs...)
	vals := make([]interface{}, len(src))
	for _, r := range rows {
		for i, name := range src {
			vals[i] = t.ValueAt(name, r)
		}
		res.Append(vals...)
	}
	return res
}

// refTake is refProject over every column under its own name.
func refTake(t *telemetry.Table, rows []int) *telemetry.Table {
	names := make([]string, t.NumCols())
	for i, s := range t.Schema() {
		names[i] = s.Name
	}
	return refProject(t, names, names, rows)
}

func allRows(t *telemetry.Table) []int {
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// refLess states the documented ascending order over two boxed cells of one
// type, in the oracle's own words: ints and strings by <, floats by < with
// every NaN below every number and no NaN below another (-0 and +0 are
// equal under <, so neither is below the other).
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

// refSorted is the stable order ORDER BY name must produce, from boxed
// cells: refLess ascending, its converse descending, equal cells in row
// order either way.
func refSorted(t *telemetry.Table, name string, desc bool) []int {
	idx := allRows(t)
	sort.SliceStable(idx, func(i, j int) bool {
		x, y := t.ValueAt(name, idx[i]), t.ValueAt(name, idx[j])
		if desc {
			x, y = y, x
		}
		return refLess(x, y)
	})
	return idx
}

// evaler is what every AST node implements here: the value of the
// expression for one row — float64, string, or bool.
type evaler interface {
	Eval(t *telemetry.Table, row int) (interface{}, error)
}

func (c colRef) Eval(t *telemetry.Table, row int) (interface{}, error) {
	if !t.HasCol(c.name) {
		return nil, fmt.Errorf("tql: unknown column %q", c.name)
	}
	v := t.ValueAt(c.name, row)
	if iv, ok := v.(int64); ok {
		return float64(iv), nil
	}
	return v, nil
}

func (l lit) Eval(*telemetry.Table, int) (interface{}, error) { return l.v, nil }

func (c cmp) Eval(t *telemetry.Table, row int) (interface{}, error) {
	lv, err := c.l.(evaler).Eval(t, row)
	if err != nil {
		return nil, err
	}
	rv, err := c.r.(evaler).Eval(t, row)
	if err != nil {
		return nil, err
	}
	switch a := lv.(type) {
	case float64:
		b, ok := rv.(float64)
		if !ok {
			return nil, fmt.Errorf("tql: comparing number with %T", rv)
		}
		return compareFloat(c.op, a, b)
	case string:
		b, ok := rv.(string)
		if !ok {
			return nil, fmt.Errorf("tql: comparing string with %T", rv)
		}
		return compareString(c.op, a, b)
	}
	return nil, fmt.Errorf("tql: cannot compare %T", lv)
}

func compareFloat(op string, a, b float64) (interface{}, error) {
	switch op {
	case "=":
		return a == b, nil
	case "!=", "<>":
		return a != b, nil
	case "<":
		return a < b, nil
	case "<=":
		return a <= b, nil
	case ">":
		return a > b, nil
	case ">=":
		return a >= b, nil
	}
	return nil, fmt.Errorf("tql: bad operator %q", op)
}

func compareString(op string, a, b string) (interface{}, error) {
	switch op {
	case "=":
		return a == b, nil
	case "!=", "<>":
		return a != b, nil
	case "<":
		return a < b, nil
	case "<=":
		return a <= b, nil
	case ">":
		return a > b, nil
	case ">=":
		return a >= b, nil
	}
	return nil, fmt.Errorf("tql: bad operator %q", op)
}

func (x logic) Eval(t *telemetry.Table, row int) (interface{}, error) {
	lv, err := asBool(x.l, t, row)
	if err != nil {
		return nil, err
	}
	// Short circuit.
	if x.op == "and" && !lv {
		return false, nil
	}
	if x.op == "or" && lv {
		return true, nil
	}
	return asBool(x.r, t, row)
}

func (n neg) Eval(t *telemetry.Table, row int) (interface{}, error) {
	v, err := asBool(n.e, t, row)
	if err != nil {
		return nil, err
	}
	return !v, nil
}

func (a arith) Eval(t *telemetry.Table, row int) (interface{}, error) {
	lv, err := asNumber(a.l, t, row)
	if err != nil {
		return nil, err
	}
	rv, err := asNumber(a.r, t, row)
	if err != nil {
		return nil, err
	}
	switch a.op {
	case '+':
		return lv + rv, nil
	case '-':
		return lv - rv, nil
	case '*':
		return lv * rv, nil
	case '/':
		if rv == 0 {
			return nil, fmt.Errorf("tql: division by zero")
		}
		return lv / rv, nil
	}
	return nil, fmt.Errorf("tql: bad arithmetic operator %q", a.op)
}

func (n negNum) Eval(t *telemetry.Table, row int) (interface{}, error) {
	v, err := asNumber(n.e, t, row)
	if err != nil {
		return nil, err
	}
	return -v, nil
}

func asNumber(e Expr, t *telemetry.Table, row int) (float64, error) {
	v, err := e.(evaler).Eval(t, row)
	if err != nil {
		return 0, err
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("tql: expected number, got %T", v)
	}
	return f, nil
}

func asBool(e Expr, t *telemetry.Table, row int) (bool, error) {
	v, err := e.(evaler).Eval(t, row)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("tql: expected boolean, got %T", v)
	}
	return b, nil
}
