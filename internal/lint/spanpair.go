package lint

import (
	"go/ast"
	"go/types"
)

// SpanPair flags trace span begins that can never be closed: the Open
// handle returned by a Begin call must have End/EndRaw called on it (a
// deferred call counts) or escape the function that opened it. An Open
// dropped on the floor is a span that silently never reaches the flight
// recorder — the diagnosis timeline then under-reports exactly the interval
// someone bothered to instrument.
//
// Runtime counterpart: none — a lost span is invisible at runtime, which is
// why the pairing is enforced statically.
type SpanPair struct{}

func (SpanPair) Name() string { return "spanpair" }
func (SpanPair) Doc() string {
	return "every trace span Begin must be closed by End/EndRaw in the same function"
}

func (SpanPair) Run(pass *Pass) {
	mustConsume(pass, "spanpair",
		"call End/EndRaw on the handle (defer works) or return it to the caller",
		isSpanBegin, "span Begin handle", nil)
}

// isSpanBegin matches method calls named Begin returning a value (or
// pointer) of a type named Open — the shape of trace.(*Recorder).Begin.
func isSpanBegin(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Begin" {
		return false
	}
	t := pass.TypeOf(call)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Open"
}
