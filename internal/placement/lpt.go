package placement

import "slices"

// LPT is the Longest-Processing-Time-first greedy for makespan minimization
// (§V-B): sort blocks by descending cost, assign each to the least-loaded
// rank. Graham's bound guarantees the resulting makespan is at most 4/3 − 1/(3r)
// times optimal; in the paper's experiments a commercial ILP solver could not
// beat it within a 200 s budget. LPT ignores communication locality entirely.
type LPT struct{}

// Name returns "lpt".
func (LPT) Name() string { return "lpt" }

// Assign places blocks by LPT. Ties (equal loads, equal costs) break on
// lower rank and lower block index, keeping the policy deterministic.
func (LPT) Assign(costs []float64, nranks int) Assignment {
	if nranks <= 0 {
		panic("placement: lpt with nranks <= 0")
	}
	blocks := make([]blockCost, len(costs))
	for i, c := range costs {
		blocks[i] = blockCost{cost: c, idx: i}
	}
	h := make([]rankLoad, nranks)
	for r := range h {
		h[r].rank = r
	}
	a := make(Assignment, len(costs))
	lptInto(blocks, h, a)
	return a
}

// blockCost is one block of an LPT run: its cost and global block index.
type blockCost struct {
	cost float64
	idx  int
}

// rankLoad is a min-heap entry: the rank with the smallest load (ties on
// rank id) sits on top.
type rankLoad struct {
	load float64
	rank int
}

func (a rankLoad) less(b rankLoad) bool {
	if a.load != b.load {
		return a.load < b.load
	}
	return a.rank < b.rank
}

// siftDown restores the min-heap property of h below position i.
func siftDown(h []rankLoad, i int) {
	e := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if right := child + 1; right < len(h) && h[right].less(h[child]) {
			child = right
		}
		if !h[child].less(e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// lptInto runs LPT: blocks are placed heaviest first (ties on ascending
// index), each onto the least-loaded rank of h, and out[idx] receives the
// rank. h holds the participating ranks, each once, with their starting
// loads in any order; (load, rank) is a strict total order, so the rank
// chosen at every step does not depend on the heap's layout. blocks and h
// are reordered in place. This is the shared kernel used by both pure LPT
// and the CPLX rebalance stage.
func lptInto(blocks []blockCost, h []rankLoad, out Assignment) {
	slices.SortFunc(blocks, func(a, b blockCost) int {
		if a.cost != b.cost {
			if a.cost > b.cost {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	})
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, b := range blocks {
		out[b.idx] = h[0].rank
		h[0].load += b.cost
		siftDown(h, 0)
	}
}
