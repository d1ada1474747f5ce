package lint

import (
	"go/ast"
	"go/types"
)

// ReqLeak flags Isend/Irecv results that can never reach a Wait: a
// *Request discarded on the floor, assigned to the blank identifier, or
// parked in a local (or accumulated into a local slice) that the function
// never touches again.
//
// Since the rule went interprocedural, "passed to a call" is no longer
// automatic consumption: passing a request to a module-internal helper only
// discharges the Wait obligation when the helper's summary says the
// corresponding parameter is handled — waited on, used, escaped, or
// forwarded (transitively) to a function that handles it. A helper that
// takes the request and drops it, or a mutually-recursive pair that only
// pass it back and forth, no longer launders the leak. Calls that cannot be
// resolved to module functions are still assumed to consume.
//
// Runtime counterpart: the freed-marker panic in mpi (double Wait) and
// AuditTeardown's send-completion check, which catch leaks only on runs
// where the leaked request's message actually mattered; this rule catches
// the shape on every build.
type ReqLeak struct{}

func (ReqLeak) Name() string { return "reqleak" }
func (ReqLeak) Doc() string {
	return "every Isend/Irecv *Request must reach a Wait/WaitAll, directly or through a handling helper"
}

const reqLeakFix = "Wait on the request (or WaitAll on the slice collecting it)"

// RunModule applies the rule to every package, consulting the request-
// parameter summaries to decide whether passing a request to a module
// helper consumes it.
func (ReqLeak) RunModule(mp *ModulePass) {
	consumes := func(pass *Pass, call *ast.CallExpr, argIdx int) bool {
		callee := staticCallee(mp.Graph, pass.Pkg, call)
		if callee == nil {
			return true // dynamic, interface, or non-module call: assume handled
		}
		handled, ok := mp.Sums.calleeParamHandled(callee, call, argIdx)
		if !ok {
			return true // not a request-shaped parameter slot: out of scope
		}
		return handled
	}
	for _, pkg := range mp.Set.All {
		pass := &Pass{Pkg: pkg, Module: mp.Set.All, diags: mp.diags}
		mustConsume(pass, "reqleak", reqLeakFix, isRequestProducer,
			"Isend/Irecv request", consumes)
	}
}

// isRequestProducer matches method calls named Isend or Irecv returning a
// pointer to a type named Request. Matching by name and result shape keeps
// the rule applicable to the fixture packages as well as internal/mpi.
func isRequestProducer(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Isend" && sel.Sel.Name != "Irecv") {
		return false
	}
	t := pass.TypeOf(call)
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Request"
}
