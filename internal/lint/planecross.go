package lint

import (
	"go/ast"
	"go/types"
)

// PlaneCross machine-checks the two-plane lane discipline of DESIGN.md §11:
// sim-plane instruments (the laned Counter/Sum/Histogram — unsynchronized,
// safe only under shard ownership) may only be updated from window-phase
// contexts, and host-plane instruments (the atomic HostCounter/HostGauge/
// HostHistogram) may only be updated from host contexts (goroutines outside
// the deterministic core, HTTP handlers).
//
// An update is a call to a mutating instrument method (Inc/Add/Observe on
// the laned types, Inc/Add/Set/SetMax/Observe on the host types) on a type
// declared in a package named "metrics". Reads (Value, Snapshot, Write) are
// free: the host plane snapshots sim instruments between windows by design.
//
// Host reachability stops at window-phase-reachable functions, so shared
// plumbing that both planes call through is attributed to the sim plane and
// not double-flagged.
//
// Runtime counterpart: a laned instrument updated from a wall-clock
// goroutine is a data race the widened `go test -race ./...` job can only
// catch when the schedule cooperates; a host atomic updated per simulated
// event is a determinism and contention bug no audit currently catches.
type PlaneCross struct {
	// Core is the deterministic-core package list used to classify
	// goroutine spawns as host-plane roots (DefaultCorePackages when nil).
	Core []string
}

// NewPlaneCross returns the planecross analyzer over the given core set.
func NewPlaneCross(core []string) *PlaneCross {
	if core == nil {
		core = DefaultCorePackages
	}
	return &PlaneCross{Core: core}
}

func (*PlaneCross) Name() string { return "planecross" }
func (*PlaneCross) Doc() string {
	return "sim-plane metrics only from window contexts, host-plane metrics only from host contexts"
}

// simUpdateMethods / hostUpdateMethods are the mutating methods of each
// plane's instrument types.
var (
	simInstrumentTypes = map[string]bool{"Counter": true, "Sum": true, "Histogram": true}
	simUpdateMethods   = map[string]bool{"Inc": true, "Add": true, "Observe": true}

	hostInstrumentTypes = map[string]bool{"HostCounter": true, "HostGauge": true, "HostHistogram": true}
	hostUpdateMethods   = map[string]bool{"Inc": true, "Add": true, "Set": true, "SetMax": true, "Observe": true}
)

func (pc *PlaneCross) RunModule(mp *ModulePass) {
	g := mp.Graph
	simReach := g.Reachable(WindowRoots(g), nil)
	hostReach := g.Reachable(HostRoots(g, pc.Core),
		func(n *FuncNode) bool { return simReach.Has(n) })
	for _, n := range g.Nodes {
		if simReach.Has(n) {
			pc.checkNode(mp, n, simReach, true)
		} else if hostReach.Has(n) {
			pc.checkNode(mp, n, hostReach, false)
		}
	}
}

// checkNode scans one function's own body for instrument updates belonging
// to the other plane.
func (pc *PlaneCross) checkNode(mp *ModulePass, n *FuncNode, reach *Reach, simContext bool) {
	walkOwn(n.Body(), func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		sel, ok := n.Pkg.Info.Selections[fun]
		if !ok {
			return
		}
		typeName, method, ok := instrumentCall(sel, fun.Sel.Name)
		if !ok {
			return
		}
		switch {
		case simContext && hostInstrumentTypes[typeName] && hostUpdateMethods[method]:
			mp.Reportf(call.Pos(), "planecross",
				"record through the window's laned sim instruments and let the host plane snapshot them",
				reach.Path(n),
				"host-plane instrument %s.%s updated from a window-phase context", typeName, method)
		case !simContext && simInstrumentTypes[typeName] && simUpdateMethods[method]:
			mp.Reportf(call.Pos(), "planecross",
				"use a host-plane (atomic) instrument; laned instruments are unsynchronized and owned by the window phase",
				reach.Path(n),
				"sim-plane instrument %s.%s updated from a host-plane context", typeName, method)
		}
	})
}

// instrumentCall identifies a method call on an instrument type declared in
// a package named "metrics", returning the type and method names.
func instrumentCall(sel *types.Selection, method string) (string, string, bool) {
	recv := sel.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "metrics" {
		return "", "", false
	}
	return named.Obj().Name(), method, true
}
