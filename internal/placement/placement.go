// Package placement implements the paper's block-placement policy suite:
// the contiguous SFC baseline (§V-A2), LPT load balancing (§V-B), the
// contiguous dynamic program CDP with its restricted O(nr) and hierarchically
// chunked variants (§V-C), and the hybrid CPLX policy with its tunable
// locality-disruption parameter X (§V-D).
//
// All policies share one contract: given per-block compute costs listed in
// SFC (Z-order) order and a rank count, produce a block→rank assignment.
// Costs arrive in SFC order because placement runs inside redistribution,
// after block IDs have been (re)assigned by the octree traversal (§V-A2).
// Policies are deterministic: the same inputs always produce the same
// assignment.
package placement

import (
	"fmt"
	"math"
)

// Assignment maps each block (by SFC index) to a rank. Rank ids are int32,
// as everywhere downstream (mesh views, MPI ranks, the owner directory):
// the map is the one O(blocks) array every policy allocates, so its width is
// half of placement's output memory.
type Assignment []int32

// checkRanks panics unless nranks is a rank count an Assignment can hold:
// positive and no larger than math.MaxInt32. Every entry point calls it
// before it allocates anything sized by nranks.
func checkRanks(who string, nranks int) {
	if nranks <= 0 {
		panic("placement: " + who + " with nranks <= 0")
	}
	if nranks > math.MaxInt32 {
		panic(fmt.Sprintf("placement: %s with nranks %d > math.MaxInt32", who, nranks))
	}
}

// Policy computes block→rank assignments from SFC-ordered block costs.
type Policy interface {
	// Name identifies the policy in experiment output (e.g. "baseline",
	// "lpt", "cpl50").
	Name() string
	// Assign places len(costs) blocks onto nranks ranks. Implementations
	// panic if nranks <= 0 or nranks > math.MaxInt32. Blocks may outnumber
	// ranks or vice versa.
	Assign(costs []float64, nranks int) Assignment
}

// Validate checks that a is a complete assignment of nblocks blocks onto
// ranks in [0, nranks).
func Validate(a Assignment, nblocks, nranks int) error {
	if len(a) != nblocks {
		return fmt.Errorf("placement: assignment covers %d blocks, want %d", len(a), nblocks)
	}
	for i, r := range a {
		if r < 0 || int(r) >= nranks {
			return fmt.Errorf("placement: block %d assigned to rank %d (nranks=%d)", i, r, nranks)
		}
	}
	return nil
}

// Loads returns the total cost assigned to each rank.
func Loads(costs []float64, a Assignment, nranks int) []float64 {
	loads := make([]float64, nranks)
	for i, r := range a {
		loads[r] += costs[i]
	}
	return loads
}

// Makespan returns the maximum per-rank load — the quantity CDP and LPT
// minimize, and the lower bound on the compute phase of a BSP timestep.
func Makespan(costs []float64, a Assignment, nranks int) float64 {
	maxLoad := 0.0
	for _, l := range Loads(costs, a, nranks) {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return maxLoad
}

// LowerBound returns the trivial makespan lower bound
// max(max cost, total/nranks): no schedule can beat either term.
func LowerBound(costs []float64, nranks int) float64 {
	var total, maxc float64
	for _, c := range costs {
		total += c
		if c > maxc {
			maxc = c
		}
	}
	avg := total / float64(nranks)
	if maxc > avg {
		return maxc
	}
	return avg
}

// Imbalance returns makespan divided by average load (>= 1 when any block is
// placed; 0 for an empty assignment). 1.0 is perfect balance.
func Imbalance(costs []float64, a Assignment, nranks int) float64 {
	loads := Loads(costs, a, nranks)
	var total, maxLoad float64
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total == 0 {
		return 0
	}
	return maxLoad / (total / float64(nranks))
}

// LocalityFraction returns the fraction of adjacency edges whose endpoints
// land on the same rank under a. adj lists, for each block, the SFC indices
// of its distinct neighbors (mesh.AdjacencyBySFC). Each undirected edge is
// counted once. Returns 1 for a mesh with no edges.
func LocalityFraction(adj [][]int32, a Assignment) float64 {
	same, total := 0, 0
	for i, ns := range adj {
		for _, j := range ns {
			if int(j) <= i { // count each undirected edge once
				continue
			}
			total++
			if a[i] == a[j] {
				same++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(same) / float64(total)
}

// NodeLocalityFraction is LocalityFraction at node granularity: endpoints on
// the same node (rank/ranksPerNode) count as local. This is the metric
// behind Fig 6c's local-vs-remote message split. It panics if
// ranksPerNode <= 0.
func NodeLocalityFraction(adj [][]int32, a Assignment, ranksPerNode int) float64 {
	if ranksPerNode <= 0 {
		panic(fmt.Sprintf("placement: NodeLocalityFraction with ranksPerNode %d <= 0", ranksPerNode))
	}
	same, total := 0, 0
	for i, ns := range adj {
		for _, j := range ns {
			if int(j) <= i {
				continue
			}
			total++
			if int(a[i])/ranksPerNode == int(a[j])/ranksPerNode {
				same++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(same) / float64(total)
}

// Migrations returns how many blocks change ranks between two assignments of
// the same block set. It panics on length mismatch.
func Migrations(old, new Assignment) int {
	if len(old) != len(new) {
		panic("placement: Migrations over different block sets")
	}
	n := 0
	for i := range old {
		if old[i] != new[i] {
			n++
		}
	}
	return n
}
