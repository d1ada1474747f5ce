package placement

import (
	"runtime"
	"testing"

	"amrtools/internal/xrand"
)

// Placement runs inside redistribution on a 50 ms budget (Fig 7c), and at
// scale the kernels' cost used to be their bookkeeping: a DP matrix
// allocated row by row, one boxed heap entry per block. This file pins the
// allocation counts with testing.AllocsPerRun so that cost cannot creep
// back: the flat kernels allocate a fixed number of objects whatever the
// problem size, the chunked one a number that follows the chunk count.

// TestFlatKernelAllocsConstant: LPT, the unchunked restricted CDP and the
// unchunked CPLX allocate the same handful of objects at every size. CPLX's
// budget is its measured count: the CDP seed's five objects plus the
// rebalance's loads, rank-order radix scratch, selection, heap and block
// pool.
func TestFlatKernelAllocsConstant(t *testing.T) {
	const budget, cplx = 8, 10
	// The collector's first cycle starts its workers, and those allocations
	// would land in whichever call it interrupts.
	runtime.GC()
	rng := xrand.New(3)
	for _, c := range []struct {
		p   Policy
		max float64
	}{{LPT{}, budget}, {CDP{Restricted: true}, budget}, {CPLX{X: 50}, cplx}, {CPLX{X: 100}, cplx}} {
		for _, r := range []int{16, 256, 2048} {
			costs := randomCosts(rng, r+r/2)
			per := testing.AllocsPerRun(5, func() { c.p.Assign(costs, r) })
			if per > c.max {
				t.Errorf("%s at %d ranks allocates %.0f objects per call, budget %.0f", c.p.Name(), r, per, c.max)
			}
		}
	}
}

// TestChunkedCPLXAllocBudget: CPL50 over 512-rank chunks at 4096 ranks. The
// CDP seed costs a few objects per worker (the DP scratch is reused across a
// worker's chunks, growing to the widest one), the rebalance a fixed handful
// — nothing per rank or per block.
func TestChunkedCPLXAllocBudget(t *testing.T) {
	const ranks, chunk = 4096, 512
	costs := randomCosts(xrand.New(4), ranks+ranks/2)
	p := CPLX{X: 50, ChunkSize: chunk}
	per := testing.AllocsPerRun(5, func() { p.Assign(costs, ranks) })
	if budget := float64(8 * ranks / chunk); per > budget {
		t.Errorf("%s at %d ranks allocates %.0f objects per call, budget %.0f (8 per chunk)", p.Name(), ranks, per, budget)
	}
}
