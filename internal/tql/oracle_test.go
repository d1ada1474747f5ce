package tql

import (
	"fmt"

	"amrtools/internal/telemetry"
)

// The differential oracle: a row-at-a-time interpreter, the reference
// implementation the corpus and the fuzzer compare both sources against.
// It evaluates the WHERE AST one row at a time with Go's own
// short-circuit order and dynamic typing, sharing nothing with the kernels;
// the post-WHERE stages are the executor's own (finish), which is sound
// because the oracle is only consulted for queries that bind.

// oracleExec runs q over t through the row interpreter. It fails with the
// first evaluation error in row order.
func oracleExec(q *Query, t *telemetry.Table) (*telemetry.Table, error) {
	b, err := bind(q, t.Schema())
	if err != nil {
		return nil, fmt.Errorf("oracle consulted for a query that does not bind: %w", err)
	}
	cur := t
	if q.Where != nil {
		var ferr error
		cur = t.Filter(func(row int) bool {
			if ferr != nil {
				return false
			}
			ok, err := asBool(q.Where, t, row)
			if err != nil {
				ferr = err
				return false
			}
			return ok
		})
		if ferr != nil {
			return nil, ferr
		}
	}
	return b.finish(cur), nil
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
