package tql

import (
	"fmt"
	"strconv"

	"amrtools/internal/telemetry"
)

// Query is a parsed TQL statement.
type Query struct {
	Select  []SelectItem
	Star    bool // SELECT *
	From    string
	Where   Expr // nil when absent
	GroupBy []string
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

// SelectItem is one projection: a plain column or an aggregate call.
type SelectItem struct {
	Col   string            // column name (or aggregate argument)
	Agg   telemetry.AggFunc // valid when IsAgg
	IsAgg bool
	Alias string // output name; empty = default
}

// OutName returns the item's output column name.
func (s SelectItem) OutName() string {
	if s.Alias != "" {
		return s.Alias
	}
	if s.IsAgg {
		if s.Col == "" {
			return s.Agg.String()
		}
		return s.Agg.String() + "_" + s.Col
	}
	return s.Col
}

// OrderItem is one ORDER BY key, in the form the sort kernels take it.
type OrderItem = telemetry.SortKey

// Expr is a WHERE-clause expression node. The AST carries no evaluation
// logic: bind types it against a schema and compiles it to kernels.
type Expr interface{ expr() }

// colRef reads a column value.
type colRef struct{ name string }

// lit is a literal number (float64) or string.
type lit struct{ v interface{} }

// cmp is a binary comparison.
type cmp struct {
	op   string
	l, r Expr
}

// logic is AND/OR; neg is NOT.
type logic struct {
	op   string // "and" | "or"
	l, r Expr
}

type neg struct{ e Expr }

// arith is a binary numeric operation (+ - * /), enabling diagnosis
// predicates like `sync > 0.5 * compute`.
type arith struct {
	op   byte
	l, r Expr
}

// negNum is unary numeric minus.
type negNum struct{ e Expr }

func (colRef) expr() {}
func (lit) expr()    {}
func (cmp) expr()    {}
func (logic) expr()  {}
func (neg) expr()    {}
func (arith) expr()  {}
func (negNum) expr() {}

type parser struct {
	toks []token
	i    int
}

// Parse parses a TQL statement.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("tql: trailing input at offset %d", p.cur().pos)
	}
	return q, nil
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) advance()   { p.i++ }
func (p *parser) atKw(kw string) bool {
	return p.cur().kind == tokIdent && p.cur().text == kw
}
func (p *parser) eatKw(kw string) bool {
	if p.atKw(kw) {
		p.advance()
		return true
	}
	return false
}
func (p *parser) expectKw(kw string) error {
	if !p.eatKw(kw) {
		return fmt.Errorf("tql: expected %s at offset %d", kw, p.cur().pos)
	}
	return nil
}
func (p *parser) eatPunct(s string) bool {
	if p.cur().kind == tokPunct && p.cur().text == s {
		p.advance()
		return true
	}
	return false
}
func (p *parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return fmt.Errorf("tql: expected %q at offset %d", s, p.cur().pos)
	}
	return nil
}
func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", fmt.Errorf("tql: expected identifier at offset %d", p.cur().pos)
	}
	s := p.cur().text
	p.advance()
	return s, nil
}

var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"order": true, "limit": true, "and": true, "or": true, "not": true,
	"as": true, "asc": true, "desc": true,
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	if p.eatPunct("*") {
		q.Star = true
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, item)
			if !p.eatPunct(",") {
				break
			}
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	from, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	q.From = from
	if p.eatKw("where") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.eatKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, col)
			if !p.eatPunct(",") {
				break
			}
		}
	}
	if p.eatKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: col}
			if p.eatKw("desc") {
				item.Desc = true
			} else {
				p.eatKw("asc")
			}
			q.OrderBy = append(q.OrderBy, item)
			if !p.eatPunct(",") {
				break
			}
		}
	}
	if p.eatKw("limit") {
		if p.cur().kind != tokNumber {
			return nil, fmt.Errorf("tql: expected number after LIMIT at offset %d", p.cur().pos)
		}
		n, err := strconv.Atoi(p.cur().text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("tql: bad LIMIT %q", p.cur().text)
		}
		q.Limit = n
		p.advance()
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	var item SelectItem
	name, err := p.expectIdent()
	if err != nil {
		return item, err
	}
	if reserved[name] {
		return item, fmt.Errorf("tql: reserved word %q in select list", name)
	}
	if agg, isAgg := telemetry.AggByName(name); isAgg && p.eatPunct("(") {
		item.IsAgg = true
		item.Agg = agg
		if p.eatPunct("*") {
			item.Col = ""
		} else {
			col, err := p.expectIdent()
			if err != nil {
				return item, err
			}
			item.Col = col
		}
		if err := p.expectPunct(")"); err != nil {
			return item, err
		}
	} else {
		item.Col = name
	}
	if p.eatKw("as") {
		alias, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Alias = alias
	}
	return item, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatKw("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = logic{op: "or", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.eatKw("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = logic{op: "and", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.eatKw("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return neg{e: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokPunct {
		switch p.cur().text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			op := p.cur().text
			p.advance()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return cmp{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.cur().text[0]
		p.advance()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = arith{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && (p.cur().text == "*" || p.cur().text == "/") {
		op := p.cur().text[0]
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = arith{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur().kind == tokPunct && p.cur().text == "-" {
		p.advance()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return negNum{e: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("tql: bad number %q", t.text)
		}
		p.advance()
		return lit{v: v}, nil
	case tokString:
		p.advance()
		return lit{v: t.text}, nil
	case tokIdent:
		if reserved[t.text] {
			return nil, fmt.Errorf("tql: unexpected keyword %q at offset %d", t.text, t.pos)
		}
		p.advance()
		return colRef{name: t.text}, nil
	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokEOF:
		// A truncated query is a user syntax error like any other stray
		// token: the error below.
	}
	return nil, fmt.Errorf("tql: unexpected token at offset %d", t.pos)
}
