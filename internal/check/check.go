// Package check is the paranoid-mode invariant-audit layer: a small,
// always-compiled vocabulary for reporting broken runtime invariants from
// anywhere in the simulation stack (sim, simnet, mpi, mesh, placement,
// driver).
//
// The paper's central lesson is that placement conclusions are only as good
// as the measurement substrate beneath them (§IV spends pages debugging the
// platform before a single Fig 6 number can be trusted). This repo's
// experiment tables are its product, so hot paths must stay refactorable
// without fear of silent semantic drift. Paranoid mode is the machine-checked
// substitute for reviewer eyeballs: each runtime layer carries cheap,
// config-gated audits that panic with a structured *Violation the moment an
// invariant breaks, naming the layer, the invariant, and the offending state.
//
// The checks themselves live in the layers they audit (see DESIGN.md §3,
// "Paranoid mode"); this package only defines the reporting contract:
//
//   - Failf panics with a *Violation (layer, invariant, detail) so failures
//     are greppable and tests can assert on exactly which invariant fired;
//   - Catch runs a function and recovers a *Violation, for injection tests;
//   - Force globally enables paranoid mode; test packages call it from
//     TestMain so every simulation they run is audited.
//
// Violations are panics, not errors: a broken invariant means the simulation
// state is already unsound, so continuing would only launder the corruption
// into result tables. The campaign harness recovers panics into structured
// run errors, so one poisoned run fails loudly without sinking its campaign.
package check

import (
	"fmt"
	"sync/atomic"
)

// Violation is a broken runtime invariant: which layer detected it, which
// invariant broke, and the offending state.
type Violation struct {
	// Layer is the runtime layer that detected the violation
	// ("sim", "simnet", "mpi", "mesh", "placement", "driver").
	Layer string
	// Invariant is a stable, greppable invariant name
	// (e.g. "collective-membership", "shm-slot", "plan-symmetry").
	Invariant string
	// Detail describes the offending state (ranks, tags, counts).
	Detail string
}

// Error renders the violation as "check: layer/invariant: detail".
func (v *Violation) Error() string {
	return fmt.Sprintf("check: %s/%s: %s", v.Layer, v.Invariant, v.Detail)
}

// Failf panics with a *Violation for the given layer and invariant. It
// never returns, so its allocations are failure-path only.
func Failf(layer, invariant, format string, args ...interface{}) {
	panic(&Violation{Layer: layer, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// Assertf is Failf gated on a condition: it panics with a *Violation unless
// cond holds. The format arguments are only evaluated on failure.
func Assertf(cond bool, layer, invariant, format string, args ...interface{}) {
	if !cond {
		Failf(layer, invariant, format, args...)
	}
}

// As extracts a *Violation from a recovered panic value, an error chain, or
// a wrapper exposing the original panic value through a PanicValue method
// (the harness's *PanicError does, so campaign run errors stay assertable).
func As(r interface{}) (*Violation, bool) {
	switch v := r.(type) {
	case *Violation:
		return v, true
	case interface{ PanicValue() interface{} }:
		return As(v.PanicValue())
	case interface{ Unwrap() error }:
		return As(v.Unwrap())
	}
	return nil, false
}

// Catch runs fn and recovers a *Violation panic, returning it with ok=true.
// A completed fn returns (nil, false); any other panic propagates. This is
// the assertion helper for violation-injection tests.
func Catch(fn func()) (v *Violation, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if viol, isViol := As(r); isViol {
				v, ok = viol, true
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil, false
}

// forced is the global paranoid override, set by test helpers.
var forced atomic.Bool

// Force globally enables (or disables) paranoid mode, overriding per-run
// configuration. Test packages call Force(true) from TestMain so every
// simulation they construct — directly or through the driver — runs audited.
func Force(on bool) { forced.Store(on) }

// Forced reports whether paranoid mode is globally forced on.
func Forced() bool { return forced.Load() }

// Enabled resolves a layer's effective paranoid state from its explicit
// configuration and the global override.
func Enabled(explicit bool) bool { return explicit || Forced() }
