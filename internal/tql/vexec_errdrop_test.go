package tql

import (
	"strings"
	"testing"

	"amrtools/internal/telemetry"
)

// Regression tests for the errdrop findings in the string comparators: the
// string compare's error used to be discarded with `r, _ :=`, so an
// operator it does not support either panicked on the nil result's type
// assertion (dictionary-hoisted paths) or silently evaluated every row to
// false (row-wise path). The parser happens to admit only supported
// operators, which is exactly how the class survives review — so these
// tests hand-build the AST, the way a future operator addition would.
//
// Operators are resolved at bind, once, so a kernel cannot hold an
// unresolved one: the query must be rejected before any row, on every
// comparison shape, rows or no rows.

var badOpShapes = map[string]cmp{
	"col-lit": {op: "~", l: colRef{"policy"}, r: lit{"aa"}},
	"lit-col": {op: "~", l: lit{"aa"}, r: colRef{"policy"}},
	"col-col": {op: "~", l: colRef{"policy"}, r: colRef{"policy"}},
	"lit-lit": {op: "~", l: lit{"aa"}, r: lit{"bb"}},
	"numeric": {op: "~", l: colRef{"wait"}, r: lit{1.0}},
}

func wantBadOp(t *testing.T, name string, src *telemetry.Table, where Expr) {
	t.Helper()
	q := &Query{Star: true, From: "t", Where: where, Limit: -1}
	if _, err := bind(q, src.Schema()); err == nil || !strings.Contains(err.Error(), `bad operator "~"`) {
		t.Fatalf("%s: bind error = %v, want bad-operator error", name, err)
	}
	if _, err := execTable(q, src); err == nil || !strings.Contains(err.Error(), `bad operator "~"`) {
		t.Fatalf("%s: execTable error = %v, want bad-operator error", name, err)
	}
}

func TestVCmpStrBadOpSurfacesError(t *testing.T) {
	for name, c := range badOpShapes {
		wantBadOp(t, name, testTable(), c)
		// Guarded by a conjunct that rules every row out: still rejected.
		wantBadOp(t, name+" guarded", testTable(),
			logic{op: "and", l: cmp{op: ">", l: colRef{"step"}, r: lit{100.0}}, r: c})
	}
}

// A bad operator is rejected over a table with no rows too: bind does not
// depend on the rows.
func TestVCmpStrBadOpEmptySelection(t *testing.T) {
	empty := telemetry.NewTable(testTable().Schema()...)
	for name, c := range badOpShapes {
		wantBadOp(t, name, empty, c)
	}
}

func strChunk() *chunkCtx {
	return &chunkCtx{
		cols: []telemetry.Column{
			{Dict: []string{"aa", "bb"}, IDs: []uint32{0, 1, 0}},
			{Dict: []string{"aa", "cc"}, IDs: []uint32{0, 0, 1}},
		},
		n: 3,
	}
}

// The supported operators evaluate correctly through the dictionary hoist
// and the row-wise column/column kernel.
func TestVCmpStrGoodOpsStillWork(t *testing.T) {
	c := strChunk()
	sel := []int{0, 1, 2}
	for _, tc := range []struct {
		name string
		node boolNode
		want []bool
	}{
		{"col = lit", vCmpStrColLit{op: opEq, idx: 0, lit: "aa"}, []bool{true, false, true}},
		{"col > lit", vCmpStrColLit{op: opGt, idx: 0, lit: "aa"}, []bool{false, true, false}},
		{"col != col", vCmpStrColCol{op: opNe, li: 0, ri: 1}, []bool{false, true, true}},
		{"col <= col", vCmpStrColCol{op: opLe, li: 0, ri: 1}, []bool{true, false, true}},
	} {
		out, err := tc.node.eval(c, sel)
		if err != nil {
			t.Fatalf("%s: unexpected error: %v", tc.name, err)
		}
		for i := range tc.want {
			if out[i] != tc.want[i] {
				t.Fatalf("%s row %d: got %v, want %v", tc.name, i, out[i], tc.want[i])
			}
		}
	}
}
