// Package solver provides an exact branch-and-bound makespan minimizer.
//
// The paper validates LPT against a commercial ILP solver (Gurobi) with a
// 200 s budget and reports that the solver could not improve on LPT (§V-B).
// Gurobi is closed source and unavailable here; this solver is the
// substitution: an exact branch-and-bound over block→rank assignments with
// an LPT incumbent, descending-cost branching, load-based symmetry breaking,
// and the standard makespan lower bounds. Within its node budget it either
// proves LPT-quality solutions optimal or returns the best incumbent found.
//
// The budget is a count of explored branch-and-bound nodes, not a wall-clock
// deadline: the search visits exactly the same nodes in exactly the same
// order on every machine, so solver tables are bit-identical across hosts
// and runs. (An earlier version used a time.Now deadline; its results
// depended on machine speed and load, which amrlint's determinism rule now
// forbids in this package.)
package solver

import (
	"sort"

	"amrtools/internal/placement"
)

// Result is the outcome of a Solve call.
type Result struct {
	// Assignment is the best block→rank mapping found.
	Assignment placement.Assignment
	// Makespan is the maximum rank load under Assignment.
	Makespan float64
	// Optimal reports whether the search completed (proved optimality)
	// within the node budget.
	Optimal bool
	// Nodes is the number of branch-and-bound nodes explored. Deterministic:
	// two Solve calls on the same input report the same count.
	Nodes int64
}

// stopEvery is how many nodes Solve explores between two polls of its stop
// function.
const stopEvery = 4096

// Solve minimizes makespan exactly, stopping early once maxNodes
// branch-and-bound nodes have been explored (maxNodes <= 0 means no limit:
// search to proven optimality). stop, when non-nil, is polled every
// stopEvery nodes; once it reports true the search ends as if the budget had
// run out (harness.Meter.Aborted is one). A stop that never fires leaves the
// search, and Nodes, unchanged. It panics if nranks <= 0.
func Solve(costs []float64, nranks int, maxNodes int64, stop func() bool) Result {
	if nranks <= 0 {
		panic("solver: nranks <= 0")
	}
	n := len(costs)
	// Incumbent: LPT (§V-B — remarkably strong in practice).
	incumbent := placement.LPT{}.Assign(costs, nranks)
	best := placement.Makespan(costs, incumbent, nranks)
	bestAssign := append(placement.Assignment(nil), incumbent...)

	if n == 0 {
		return Result{Assignment: bestAssign, Makespan: 0, Optimal: true}
	}

	// Branch on blocks in descending cost order: big rocks first maximizes
	// pruning.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if costs[order[i]] != costs[order[j]] {
			return costs[order[i]] > costs[order[j]]
		}
		return order[i] < order[j]
	})
	suffix := make([]float64, n+1) // remaining cost from position i onward
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + costs[order[i]]
	}

	lb := placement.LowerBound(costs, nranks)
	if best <= lb+1e-12 {
		return Result{Assignment: bestAssign, Makespan: best, Optimal: true, Nodes: 0}
	}

	loads := make([]float64, nranks)
	assign := make(placement.Assignment, n)
	var nodes int64
	exhausted := false
	provedOptimal := false
	const eps = 1e-12

	var rec func(pos int, curMax float64)
	rec = func(pos int, curMax float64) {
		if exhausted || provedOptimal {
			return
		}
		nodes++
		if maxNodes > 0 && nodes >= maxNodes || stop != nil && nodes%stopEvery == 0 && stop() {
			exhausted = true
			return
		}
		if curMax >= best-eps {
			return // cannot improve
		}
		if pos == n {
			best = curMax
			copy(bestAssign, assign)
			if best <= lb+eps {
				provedOptimal = true // matched the global lower bound
			}
			return
		}
		b := order[pos]
		c := costs[b]
		// Symmetry breaking: branching into any one of several equally
		// loaded ranks is equivalent; try each distinct load once.
		seen := make(map[float64]bool, nranks)
		for r := 0; r < nranks; r++ {
			if seen[loads[r]] {
				continue
			}
			seen[loads[r]] = true
			newLoad := loads[r] + c
			if newLoad >= best-eps {
				continue
			}
			loads[r] = newLoad
			assign[b] = r
			max := curMax
			if newLoad > max {
				max = newLoad
			}
			rec(pos+1, max)
			loads[r] = newLoad - c
			if exhausted || provedOptimal {
				return
			}
		}
	}
	rec(0, 0)

	return Result{
		Assignment: bestAssign,
		Makespan:   best,
		Optimal:    !exhausted,
		Nodes:      nodes,
	}
}
