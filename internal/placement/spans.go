package placement

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// span is one unit of the chunked/zonal decomposition: the contiguous block
// range [bLo, bHi) placed on the rank range [rankLo, rankLo+ranks).
type span struct {
	bLo, bHi      int
	rankLo, ranks int
}

// equalCostBounds splits the n blocks behind the prefix sums w (len n+1)
// into k contiguous spans of approximately equal total cost with a greedy
// walk: span s covers blocks [bounds[s], bounds[s+1]). bounds is monotone
// with bounds[0] = 0 and bounds[k] = n, and the first s spans together hold
// at least min(s, n) blocks, so with n >= k no run of leading spans starves
// the rest. A span is empty when one heavy block overshoots several targets
// or when blocks run out (n < k).
func equalCostBounds(w []float64, k int) []int {
	n := len(w) - 1
	bounds := make([]int, k+1)
	bounds[k] = n
	target := w[n] / float64(k)
	j := 0
	for s := 1; s < k; s++ {
		want := float64(s) * target
		for j < n && w[j+1] < want {
			j++
		}
		j = min(max(j, s), n)
		bounds[s] = j
	}
	return bounds
}

// forEachSpan splits costs into k equal-cost spans (equalCostBounds), gives
// each an even share of nranks, and calls fn once per non-empty span. Spans
// run on min(GOMAXPROCS, k) workers — the caller being one of them — that
// pull span indices from a shared counter; each worker hands fn its own
// scratch, reused across the spans it runs.
//
// The result does not depend on worker count or interleaving as long as fn
// writes only state owned by its span. If any fn panics, no further spans
// are started and, once every worker has stopped, the panic of the lowest
// span index is re-raised on the calling goroutine. That index is the same
// on every run: spans are started in index order, so every span below the
// first one seen to panic has already been started and runs to its end.
func forEachSpan(costs []float64, nranks, k int, fn func(sp span, s *cdpScratch)) {
	bounds := equalCostBounds(prefixSums(costs), k)
	share, extra := nranks/k, nranks%k // the first extra spans get share+1 ranks
	var (
		next     atomic.Int64 // next span index to start
		mu       sync.Mutex
		failed   = k // lowest span index that panicked
		panicVal any
	)
	runSpan := func(i int, s *cdpScratch) {
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(k))
				mu.Lock()
				if i < failed {
					failed, panicVal = i, r
				}
				mu.Unlock()
			}
		}()
		sp := span{bLo: bounds[i], bHi: bounds[i+1], rankLo: i*share + min(i, extra), ranks: share}
		if i < extra {
			sp.ranks++
		}
		if sp.bHi > sp.bLo {
			fn(sp, s)
		}
	}
	worker := func() {
		var s cdpScratch
		for i := int(next.Add(1)) - 1; i < k; i = int(next.Add(1)) - 1 {
			runSpan(i, &s)
		}
	}
	var wg sync.WaitGroup
	for spawn := min(runtime.GOMAXPROCS(0), k) - 1; spawn > 0; spawn-- {
		wg.Add(1)
		//lint:ignore determinism deterministic fork-join: fixed span partition, each span writes only its own block range, WaitGroup barrier before any read; worker count only changes which goroutine runs a span
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	if failed < k {
		panic(panicVal)
	}
}
