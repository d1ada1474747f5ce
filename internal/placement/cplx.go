package placement

import "fmt"

// CPLX is the paper's hybrid policy (§V-D): start from a locality-preserving
// CDP placement, then strategically break locality only where it pays —
// the most imbalanced ranks are stripped of their blocks and rebalanced with
// LPT among themselves.
//
// The tunable parameter X ∈ [0, 100] selects X% of ranks for rebalancing,
// half from each end of the load-sorted rank list: overloaded ranks supply
// work, underloaded ranks absorb it — both ends are needed for
// redistribution to be effective. X = 0 (CPL0) preserves CDP exactly;
// X = 100 (CPL100) rebalances every rank, reproducing pure LPT's balance.
type CPLX struct {
	// X is the percentage of ranks to rebalance, in [0, 100].
	X int
	// ChunkSize, when > 0, enables hierarchical chunking for the CDP seed
	// (the paper reuses the chunking mechanism for scalability).
	ChunkSize int
	// TopOnly is an ablation switch: select rebalancing ranks only from the
	// overloaded end of the sorted list. The paper argues this cannot work
	// ("including both ends is crucial, as rebalancing needs both source
	// and destination ranks"); the ablation experiment confirms it.
	TopOnly bool
}

// Name returns "cplX" (e.g. "cpl50"), with a "-toponly" suffix for the
// ablation variant.
func (p CPLX) Name() string {
	if p.TopOnly {
		return fmt.Sprintf("cpl%d-toponly", p.X)
	}
	return fmt.Sprintf("cpl%d", p.X)
}

// Assign computes the CPLX placement.
func (p CPLX) Assign(costs []float64, nranks int) Assignment {
	checkRanks("cplx", nranks)
	if p.X < 0 || p.X > 100 {
		panic(fmt.Sprintf("placement: cplx X=%d out of [0,100]", p.X))
	}
	a := CDP{Restricted: true, ChunkSize: p.ChunkSize}.Assign(costs, nranks)
	rebalance(costs, a, nranks, p.X, p.TopOnly)
	return a
}

// RebalanceExtremes applies the CPLX rebalancing step in place: select the
// x% most loaded and x/2%-from-each-end ranks of a, pool every block they
// own, and re-place the pool across exactly those ranks with LPT. Ranks
// outside the selection are untouched, preserving their locality.
// x = 0 means rebalance zero percent of the ranks: a is left untouched.
// It panics if nranks <= 0 or nranks > math.MaxInt32.
func RebalanceExtremes(costs []float64, a Assignment, nranks, x int) {
	checkRanks("rebalance", nranks)
	rebalance(costs, a, nranks, x, false)
}

// rebalance implements RebalanceExtremes; topOnly selects the x% budget
// entirely from the overloaded end (the ablation of §V-D's "both ends"
// design argument). Ranks are ordered by (load desc, rank asc) with
// descOrder, the same stable radix order lptInto gives the blocks, so −0
// and +0 loads tie on rank and a NaN load sorts by its sign bit. The
// selected ranks restart at load 0 and enter lptInto in ascending rank
// order, as its contract requires.
func rebalance(costs []float64, a Assignment, nranks, x int, topOnly bool) {
	if x <= 0 {
		// Zero percent selects zero ranks. The "at least one per end" bump
		// below is only for small rank counts at x > 0; applying it here made
		// the exported entry point shuffle two ranks when told to touch none.
		return
	}
	if nranks < 2 {
		return // single rank: nothing to trade
	}
	loads := Loads(costs, a, nranks)
	buf := make([]int32, 2*nranks)
	order := buf[:nranks]
	for r := range order {
		order[r] = int32(r)
	}
	order = descOrder(loads, order, buf[nranks:]) // ranks by descending load
	var picked []int32
	if topOnly {
		// Ablation: the whole x% budget from the overloaded end.
		picked = order[:min(max(nranks*x/100, 1), nranks)]
	} else {
		// Half the X% budget from each end; at least one from each end
		// when X > 0 so small rank counts still rebalance. X = 100 selects
		// every rank (including the middle one when nranks is odd), making
		// CPL100 exactly pure LPT.
		perEnd := nranks * x / 200
		if x >= 100 {
			perEnd = (nranks + 1) / 2
		}
		perEnd = min(max(perEnd, 1), (nranks+1)/2)
		picked = order
		if 2*perEnd < nranks {
			picked = append(order[:perEnd], order[nranks-perEnd:]...)
		}
	}
	selected := make([]bool, nranks)
	for _, r := range picked {
		selected[r] = true
	}
	h := make([]rankLoad, 0, len(picked))
	for r, s := range selected {
		if s {
			h = append(h, rankLoad{rank: int32(r)})
		}
	}
	npool := 0
	for _, r := range a {
		if selected[r] {
			npool++
		}
	}
	pool := make([]int32, 0, 2*npool) // the blocks, then lptInto's scratch
	for b, r := range a {
		if selected[r] {
			pool = append(pool, int32(b))
		}
	}
	lptInto(costs, pool, pool[npool:2*npool], h, a)
}
