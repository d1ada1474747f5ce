package tql

import (
	"fmt"
	"slices"

	"amrtools/internal/telemetry"
)

// bound is a query resolved against one schema: every column located, every
// WHERE subexpression typed and compiled to a kernel, aggregate legality
// checked, and the column sets the executor must read computed. Every error
// that depends only on query + schema is raised by bind, before a row or
// chunk is read; the only error left for run time is division by zero.
type bound struct {
	q      *Query
	schema []telemetry.ColSpec
	// conjs are the top-level AND terms of the WHERE clause in evaluation
	// order (the parser is left-associative, so ((A and B) and C) flattens
	// to [A, B, C]); empty when there is no WHERE.
	conjs []conjunct
	// needOut marks the schema columns the post-WHERE stages read (select
	// targets, aggregate arguments, GROUP BY keys); needScan adds the WHERE
	// columns — what a chunk that must be filtered decodes.
	needOut, needScan []bool
	// Aggregation (grouped is set by any aggregate or GROUP BY): the
	// de-duplicated keys, and the aggregates under internal names ("#i",
	// not a TQL identifier) so an alias may shadow a key.
	grouped bool
	keys    []string
	aggs    []telemetry.AggSpec
	// Projection, one entry per select item: the column (or internal
	// aggregate name) it reads and the name it is output under.
	src, out []string
	// sink is where the matched rows go; orderSrc is the ORDER BY of a
	// sinkTopK query over the columns the rows still have there, before
	// projection renames them.
	sink     sinkKind
	orderSrc []OrderItem
}

// sinkKind is the post-WHERE sink of a query. What a query asks for decides
// it, never the source or the data: a grouped or top-k query folds its
// matched rows chunk by chunk and holds only groups or LIMIT rows.
type sinkKind uint8

const (
	// sinkGather: a plain projection needs every matched row.
	sinkGather sinkKind = iota
	// sinkAggregate: any aggregate or GROUP BY needs only the groups.
	sinkAggregate
	// sinkTopK: an ungrouped ORDER BY … LIMIT needs only the first LIMIT
	// rows in order.
	sinkTopK
)

// conjunct is one top-level AND term of the WHERE clause.
type conjunct struct {
	pred boolNode
	// sarg holds the "numericCol OP numericLiteral" shape (either
	// orientation) the planner can decide from a zone map; nil otherwise.
	sarg *sargPred
	// fallible reports whether evaluating the term can raise division by
	// zero on some row (a divisor that is not a nonzero literal).
	fallible bool
}

// sargPred is a search-argument predicate: column OP literal, literal on
// the right.
type sargPred struct {
	colIdx int
	op     cmpOp
	val    float64
}

type exprType uint8

const (
	tNum exprType = iota
	tStr
	tBool
)

func (t exprType) String() string {
	switch t {
	case tNum:
		return "number"
	case tStr:
		return "string"
	case tBool:
		return "boolean"
	}
	return "unknown"
}

// operand is a compiled WHERE subexpression.
type operand struct {
	typ  exprType
	num  numNode  // tNum
	pred boolNode // tBool
	// isCol marks a bare column reference, schema index col; a tStr
	// operand that is not a column is the literal str.
	isCol bool
	col   int
	str   string
	// isLit marks a numeric literal (unary minus folded), value litVal.
	isLit  bool
	litVal float64
	// sarg and fallible describe a tBool/tNum operand to the planner.
	sarg     *sargPred
	fallible bool
}

func schemaIdx(schema []telemetry.ColSpec, name string) int {
	for i, s := range schema {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// bind resolves q against schema. It is the single entry point both
// sources go through: execTable binds against a table's schema, execute
// against a file's.
func bind(q *Query, schema []telemetry.ColSpec) (*bound, error) {
	b := &bound{q: q, schema: schema, needOut: make([]bool, len(schema))}

	keySet := map[string]bool{}
	for _, k := range q.GroupBy {
		i := schemaIdx(schema, k)
		if i < 0 {
			return nil, fmt.Errorf("tql: GROUP BY unknown column %q", k)
		}
		if !keySet[k] {
			keySet[k] = true
			b.keys = append(b.keys, k)
			b.needOut[i] = true
		}
	}
	b.grouped = len(q.GroupBy) > 0
	for _, s := range q.Select {
		b.grouped = b.grouped || s.IsAgg
	}

	outNames := map[string]bool{}
	if q.Star {
		if len(q.GroupBy) > 0 {
			return nil, fmt.Errorf("tql: SELECT * with GROUP BY")
		}
		for i, s := range schema {
			b.needOut[i] = true
			outNames[s.Name] = true
		}
	}
	for i, s := range q.Select {
		src := s.Col
		if s.IsAgg && s.Col == "" {
			if s.Agg != telemetry.Count {
				return nil, fmt.Errorf("tql: %s(*) is only valid for count", s.Agg)
			}
		} else {
			ci := schemaIdx(schema, s.Col)
			if ci < 0 {
				return nil, fmt.Errorf("tql: unknown column %q", s.Col)
			}
			switch {
			case s.IsAgg && schema[ci].Type == telemetry.String:
				return nil, fmt.Errorf("tql: aggregate over string column %q", s.Col)
			case !s.IsAgg && b.grouped && !keySet[s.Col]:
				return nil, fmt.Errorf("tql: column %q must appear in GROUP BY", s.Col)
			}
			b.needOut[ci] = true
		}
		if s.IsAgg {
			src = fmt.Sprintf("#%d", i)
			col := s.Col
			if s.Agg == telemetry.Count {
				col = "" // count ignores the column
			}
			b.aggs = append(b.aggs, telemetry.AggSpec{Func: s.Agg, Col: col, As: src})
		}
		if outNames[s.OutName()] {
			return nil, fmt.Errorf("tql: duplicate output column %q", s.OutName())
		}
		outNames[s.OutName()] = true
		b.src = append(b.src, src)
		b.out = append(b.out, s.OutName())
	}

	b.needScan = append([]bool(nil), b.needOut...)
	if q.Where != nil {
		for _, e := range flattenConjuncts(q.Where) {
			o, err := b.compileAs(e, tBool)
			if err != nil {
				return nil, err
			}
			b.conjs = append(b.conjs, conjunct{pred: o.pred, sarg: o.sarg, fallible: o.fallible})
		}
	}

	for _, o := range q.OrderBy {
		if !outNames[o.Col] {
			return nil, fmt.Errorf("tql: ORDER BY unknown column %q", o.Col)
		}
	}
	switch {
	case b.grouped:
		b.sink = sinkAggregate
	case len(q.OrderBy) > 0 && q.Limit >= 0:
		b.sink = sinkTopK
		for _, o := range q.OrderBy {
			if i := slices.Index(b.out, o.Col); i >= 0 { // else SELECT *: no renames
				o.Col = b.src[i]
			}
			b.orderSrc = append(b.orderSrc, o)
		}
	}
	return b, nil
}

// flattenConjuncts splits the top-level AND spine of e in evaluation order.
func flattenConjuncts(e Expr) []Expr {
	if l, ok := e.(logic); ok && l.op == "and" {
		return append(flattenConjuncts(l.l), flattenConjuncts(l.r)...)
	}
	return []Expr{e}
}

// compileAs compiles e and requires it to have type want.
func (b *bound) compileAs(e Expr, want exprType) (operand, error) {
	o, err := b.compile(e)
	if err == nil && o.typ != want {
		err = fmt.Errorf("tql: expected %s, got %s", want, o.typ)
	}
	return o, err
}

// compile types one WHERE subexpression against the schema and compiles it
// to a kernel, left to right, marking the columns it reads in needScan.
func (b *bound) compile(e Expr) (operand, error) {
	switch x := e.(type) {
	case lit:
		switch v := x.v.(type) {
		case float64:
			return operand{typ: tNum, num: vNumLit{v: v}, isLit: true, litVal: v}, nil
		case string:
			return operand{typ: tStr, str: v}, nil
		}
		return operand{}, fmt.Errorf("tql: bad literal %v", x.v)
	case colRef:
		i := schemaIdx(b.schema, x.name)
		if i < 0 {
			return operand{}, fmt.Errorf("tql: unknown column %q", x.name)
		}
		b.needScan[i] = true
		switch b.schema[i].Type {
		case telemetry.Int64:
			return operand{typ: tNum, num: vNumCol{idx: i, isInt: true}, isCol: true, col: i}, nil
		case telemetry.Float64:
			return operand{typ: tNum, num: vNumCol{idx: i}, isCol: true, col: i}, nil
		case telemetry.String:
			return operand{typ: tStr, isCol: true, col: i}, nil
		}
		return operand{}, fmt.Errorf("tql: column %q has unknown type %v", x.name, b.schema[i].Type)
	case negNum:
		o, err := b.compileAs(x.e, tNum)
		if err != nil {
			return operand{}, err
		}
		if o.isLit {
			return operand{typ: tNum, num: vNumLit{v: -o.litVal}, isLit: true, litVal: -o.litVal}, nil
		}
		return operand{typ: tNum, num: vNegNum{e: o.num}, fallible: o.fallible}, nil
	case arith:
		l, err := b.compileAs(x.l, tNum)
		if err != nil {
			return operand{}, err
		}
		r, err := b.compileAs(x.r, tNum)
		if err != nil {
			return operand{}, err
		}
		fallible := l.fallible || r.fallible
		switch x.op {
		case '+', '-', '*':
		case '/':
			fallible = fallible || !r.isLit || r.litVal == 0
		default:
			return operand{}, fmt.Errorf("tql: bad arithmetic operator %q", x.op)
		}
		return operand{typ: tNum, num: vArith{op: x.op, l: l.num, r: r.num}, fallible: fallible}, nil
	case neg:
		o, err := b.compileAs(x.e, tBool)
		if err != nil {
			return operand{}, err
		}
		return operand{typ: tBool, pred: vNot{e: o.pred}, fallible: o.fallible}, nil
	case logic:
		if x.op != "and" && x.op != "or" {
			return operand{}, fmt.Errorf("tql: bad logical operator %q", x.op)
		}
		l, err := b.compileAs(x.l, tBool)
		if err != nil {
			return operand{}, err
		}
		r, err := b.compileAs(x.r, tBool)
		if err != nil {
			return operand{}, err
		}
		return operand{typ: tBool, pred: vLogic{and: x.op == "and", l: l.pred, r: r.pred},
			fallible: l.fallible || r.fallible}, nil
	case cmp:
		return b.compileCmp(x)
	}
	return operand{}, fmt.Errorf("tql: unsupported expression %T", e)
}

// compileCmp resolves a comparison to its typed kernel.
func (b *bound) compileCmp(x cmp) (operand, error) {
	var op cmpOp
	switch x.op {
	case "=":
		op = opEq
	case "!=", "<>":
		op = opNe
	case "<":
		op = opLt
	case "<=":
		op = opLe
	case ">":
		op = opGt
	case ">=":
		op = opGe
	default:
		return operand{}, fmt.Errorf("tql: bad operator %q", x.op)
	}
	l, err := b.compile(x.l)
	if err != nil {
		return operand{}, err
	}
	r, err := b.compile(x.r)
	if err != nil {
		return operand{}, err
	}
	out := operand{typ: tBool, fallible: l.fallible || r.fallible}
	switch {
	case l.typ == tBool || r.typ == tBool:
		return operand{}, fmt.Errorf("tql: cannot compare boolean")
	case l.typ != r.typ:
		return operand{}, fmt.Errorf("tql: comparing %s with %s", l.typ, r.typ)
	case l.typ == tNum:
		// Sargable: a numeric column against a numeric literal, which its
		// kernel compares in place.
		switch {
		case l.isCol && r.isLit:
			out.sarg = &sargPred{colIdx: l.col, op: op, val: r.litVal}
		case r.isCol && l.isLit:
			out.sarg = &sargPred{colIdx: r.col, op: op.flip(), val: l.litVal}
		}
		if s := out.sarg; s != nil {
			out.pred = vCmpColLit{sargPred: *s, isInt: b.schema[s.colIdx].Type == telemetry.Int64}
		} else {
			out.pred = vCmpNum{op: op, l: l.num, r: r.num}
		}
	case !l.isCol && !r.isCol:
		out.pred = vConstBool{v: cmpStrings(op, l.str, r.str)}
	case !r.isCol:
		out.pred = vCmpStrColLit{op: op, idx: l.col, lit: r.str}
	case !l.isCol:
		out.pred = vCmpStrColLit{op: op.flip(), idx: r.col, lit: l.str}
	default:
		out.pred = vCmpStrColCol{op: op, li: l.col, ri: r.col}
	}
	return out, nil
}
