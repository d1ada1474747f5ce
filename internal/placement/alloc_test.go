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

// bytesPerCall returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call, as testing.AllocsPerRun does for objects.
func bytesPerCall(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestFlatKernelBytesPerBlock: the bytes LPT, the unchunked restricted CDP
// and the unchunked CPL50 allocate, per block, at n = 2r blocks on r ranks
// (the shape placement_scale places). The kernels are serial, so the count
// repeats on any host. Each budget is the 4 B int32 result per block plus
// the kernel's scratch, which at n = 2r is a closed form in B per block:
//
//   - LPT: two int32 permutations (8) and one 16 B heap entry per rank (8);
//   - CDP: n = 2r divides evenly, so the DP is skipped and only the int
//     sizes, one per rank, remain (4);
//   - CPL50: the CDP seed (4), then the rebalance's float64 loads (4), its
//     int32 rank order and radix scratch (4), the selection flags (0.5),
//     the heap of the r/2 picked ranks (4) and the pool of their r blocks
//     with its radix scratch (4).
//
// The slack is 1 B per block, a quarter of what an 8 B result would add.
func TestFlatKernelBytesPerBlock(t *testing.T) {
	const slack = 1.0
	for _, c := range []struct {
		p       Policy
		scratch float64 // B per block besides the result
	}{{LPT{}, 16}, {CDP{Restricted: true}, 4}, {CPLX{X: 50}, 20.5}} {
		for _, r := range []int{2048, 16384} {
			costs := randomCosts(xrand.New(uint64(r)), 2*r)
			per := bytesPerCall(3, func() { c.p.Assign(costs, r) }) / float64(len(costs))
			if budget := 4 + c.scratch + slack; per > budget {
				t.Errorf("%s at %d ranks allocates %.2f B per block, budget %.2f (4 result + %.1f scratch + %.0f slack)",
					c.p.Name(), r, per, budget, c.scratch, slack)
			}
		}
	}
}
