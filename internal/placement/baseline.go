package placement

import (
	"fmt"
	"math"
)

// Baseline is the stock placement policy of block-based AMR frameworks
// (§V-A2): order blocks by SFC block ID and hand contiguous ranges of
// ⌈n/r⌉ or ⌊n/r⌋ blocks to consecutive ranks. It balances block *counts* —
// not costs — while co-locating spatial neighbors.
type Baseline struct{}

// Name returns "baseline".
func (Baseline) Name() string { return "baseline" }

// Assign splits the SFC order into r contiguous ranges: the first n mod r
// ranks receive ⌈n/r⌉ blocks, the rest ⌊n/r⌋.
func (Baseline) Assign(costs []float64, nranks int) Assignment {
	checkRanks("baseline", nranks)
	n := len(costs)
	a := make(Assignment, n)
	lo := n / nranks
	extra := n % nranks // first `extra` ranks get lo+1 blocks
	idx := 0
	for r := 0; r < nranks && idx < n; r++ {
		size := lo
		if r < extra {
			size++
		}
		for k := 0; k < size && idx < n; k++ {
			a[idx] = int32(r)
			idx++
		}
	}
	return a
}

// ContiguousFromSizes builds an assignment from explicit contiguous chunk
// sizes (sizes[r] blocks to rank r, in SFC order). It panics if the sizes do
// not sum to n, or if there are more than math.MaxInt32 ranks. Shared by CDP
// and the chunked variants.
func ContiguousFromSizes(n int, sizes []int) Assignment {
	if len(sizes) > math.MaxInt32 {
		panic(fmt.Sprintf("placement: ContiguousFromSizes with %d ranks > math.MaxInt32", len(sizes)))
	}
	a := make(Assignment, n)
	idx := 0
	for r, size := range sizes {
		for k := 0; k < size; k++ {
			if idx >= n {
				panic("placement: chunk sizes exceed block count")
			}
			a[idx] = int32(r)
			idx++
		}
	}
	if idx != n {
		panic("placement: chunk sizes do not cover all blocks")
	}
	return a
}
