package placement

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"amrtools/internal/xrand"
)

// The placement kernels as they stood before the rolling-row CDP, the typed
// LPT heap and the shared fork-join (PR 14), kept unchanged as the reference
// the live kernels must match assignment for assignment — not merely in
// makespan: the DP's floor-first tie-break, LPT's (load, rank) and
// (cost, index) orders and the equal-cost split decide which of several
// equally good placements comes out, and every result table downstream
// depends on that choice.

// oracleCDPRestrictedSizes is the two-chunk-size DP with the full
// (r+1)×(m+1) value and choice matrices.
func oracleCDPRestrictedSizes(costs []float64, r int) []int {
	n := len(costs)
	if n == 0 {
		return make([]int, r)
	}
	w := prefixSums(costs)
	floor := n / r
	m := n % r // number of ceil-sized chunks
	const inf = 1e308

	// dp[k][c] with c offset into [0, m]; choice[k][c] = true if the k-th
	// chunk was ceil-sized.
	dp := make([][]float64, r+1)
	choice := make([][]bool, r+1)
	for k := range dp {
		dp[k] = make([]float64, m+1)
		choice[k] = make([]bool, m+1)
		for c := range dp[k] {
			dp[k][c] = inf
		}
	}
	dp[0][0] = 0
	for k := 1; k <= r; k++ {
		cMin := m - (r - k) // remaining chunks must absorb remaining ceils
		if cMin < 0 {
			cMin = 0
		}
		cMax := k
		if cMax > m {
			cMax = m
		}
		for c := cMin; c <= cMax; c++ {
			i := k*floor + c // blocks covered
			// Option 1: k-th chunk floor-sized, from state (k-1, c).
			// (floor may be 0 when n < r: the chunk is then empty.)
			if j := i - floor; j >= 0 && dp[k-1][c] < inf {
				v := dp[k-1][c]
				if seg := w[i] - w[j]; seg > v {
					v = seg
				}
				if v < dp[k][c] {
					dp[k][c] = v
					choice[k][c] = false
				}
			}
			// Option 2: k-th chunk ceil-sized, from state (k-1, c-1).
			if c > 0 {
				if j := i - (floor + 1); j >= 0 && dp[k-1][c-1] < inf {
					v := dp[k-1][c-1]
					if seg := w[i] - w[j]; seg > v {
						v = seg
					}
					if v < dp[k][c] {
						dp[k][c] = v
						choice[k][c] = true
					}
				}
			}
		}
	}
	// Reconstruct chunk sizes.
	sizes := make([]int, r)
	c := m
	for k := r; k >= 1; k-- {
		if choice[k][c] {
			sizes[k-1] = floor + 1
			c--
		} else {
			sizes[k-1] = floor
		}
	}
	return sizes
}

type oracleLoadHeap []rankLoad

func (h oracleLoadHeap) Len() int { return len(h) }
func (h oracleLoadHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].rank < h[j].rank
}
func (h oracleLoadHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleLoadHeap) Push(x interface{}) { *h = append(*h, x.(rankLoad)) }
func (h *oracleLoadHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// oracleLPTInto is LPT over a block subset and a rank subset on
// container/heap and sort.Slice.
func oracleLPTInto(costs []float64, blocks, ranks []int, initLoad []float64, out Assignment) {
	// Sort block subset by descending cost; ties on ascending index.
	order := append([]int(nil), blocks...)
	sort.Slice(order, func(i, j int) bool {
		ci, cj := costs[order[i]], costs[order[j]]
		if ci != cj {
			return ci > cj
		}
		return order[i] < order[j]
	})
	h := make(oracleLoadHeap, len(ranks))
	for i, r := range ranks {
		load := 0.0
		if initLoad != nil {
			load = initLoad[i]
		}
		h[i] = rankLoad{load: load, rank: int32(r)}
	}
	heap.Init(&h)
	for _, b := range order {
		entry := heap.Pop(&h).(rankLoad)
		out[b] = entry.rank
		entry.load += costs[b]
		heap.Push(&h, entry)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// oracleRebalance is the CPLX rebalancing step with a map-based selection.
func oracleRebalance(costs []float64, a Assignment, nranks, x int, topOnly bool) {
	if x <= 0 {
		return
	}
	loads := Loads(costs, a, nranks)
	order := make([]int, nranks) // ranks sorted by descending load
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if loads[order[i]] != loads[order[j]] {
			return loads[order[i]] > loads[order[j]]
		}
		return order[i] < order[j]
	})
	if nranks < 2 {
		return // single rank: nothing to trade
	}
	selected := make(map[int]bool)
	var ranks []int
	if topOnly {
		k := nranks * x / 100
		if k == 0 {
			k = 1
		}
		if k > nranks {
			k = nranks
		}
		for i := 0; i < k; i++ {
			selected[order[i]] = true
			ranks = append(ranks, order[i])
		}
	} else {
		perEnd := nranks * x / 200
		if x >= 100 {
			perEnd = (nranks + 1) / 2
		}
		if perEnd == 0 {
			perEnd = 1
		}
		if 2*perEnd > nranks+1 {
			perEnd = (nranks + 1) / 2
		}
		for i := 0; i < perEnd; i++ {
			for _, r := range []int{order[i], order[nranks-1-i]} {
				if !selected[r] {
					selected[r] = true
					ranks = append(ranks, r)
				}
			}
		}
	}
	sort.Ints(ranks) // deterministic rank ordering for the LPT heap
	var pool []int
	for b, r := range a {
		if selected[int(r)] {
			pool = append(pool, b)
		}
	}
	if len(pool) == 0 {
		return
	}
	oracleLPTInto(costs, pool, ranks, nil, a)
}

// oracleSpans is the equal-cost split both the chunked CDP and Zonal used to
// carry, run sequentially. It is only defined for len(costs) >= k (below
// that the old loop indexed out of range; TestFewBlocksPerSpan covers it).
func oracleSpans(costs []float64, nranks, k int, solve func(costs []float64, ranks int) Assignment) Assignment {
	n := len(costs)
	w := prefixSums(costs)
	bounds := make([]int, k+1)
	bounds[k] = n
	target := w[n] / float64(k)
	j := 0
	for s := 1; s < k; s++ {
		want := float64(s) * target
		for j < n && w[j+1] < want {
			j++
		}
		if j < s {
			j = s
		}
		bounds[s] = j
	}
	a := make(Assignment, n)
	rankLo := 0
	for s := 0; s < k; s++ {
		ranks := nranks / k
		if s < nranks%k {
			ranks++
		}
		bLo, bHi := bounds[s], bounds[s+1]
		if bHi > bLo {
			for i, r := range solve(costs[bLo:bHi], ranks) {
				a[bLo+i] = int32(rankLo) + r
			}
		}
		rankLo += ranks
	}
	return a
}

func oracleCDP(chunk int) func([]float64, int) Assignment {
	plain := func(costs []float64, r int) Assignment {
		return ContiguousFromSizes(len(costs), oracleCDPRestrictedSizes(costs, r))
	}
	return func(costs []float64, r int) Assignment {
		if chunk > 0 && r > chunk {
			return oracleSpans(costs, r, (r+chunk-1)/chunk, plain)
		}
		return plain(costs, r)
	}
}

func oracleLPT(costs []float64, r int) Assignment {
	a := make(Assignment, len(costs))
	oracleLPTInto(costs, seq(len(costs)), seq(r), nil, a)
	return a
}

func oracleCPLX(x, chunk int, topOnly bool) func([]float64, int) Assignment {
	return func(costs []float64, r int) Assignment {
		seed := oracleCDP(chunk)(costs, r)
		if x == 0 || len(costs) == 0 {
			return seed
		}
		oracleRebalance(costs, seed, r, x, topOnly)
		return seed
	}
}

func oracleZonal(zones int, inner func([]float64, int) Assignment) func([]float64, int) Assignment {
	return func(costs []float64, r int) Assignment {
		if zones <= 1 || r < 2*zones {
			return inner(costs, r)
		}
		return oracleSpans(costs, r, zones, inner)
	}
}

// oracleDists are the cost distributions of the property test: the generic
// case plus the ones that make tie-breaks decide the outcome. signedzero
// mixes −0 into the draws: the comparator holds −0 and +0 equal, so an
// order built on the float's bits must too.
var oracleDists = []struct {
	name string
	draw func(rng *xrand.RNG) float64
}{
	{"uniform", func(rng *xrand.RNG) float64 { return 0.1 + 10*rng.Float64() }},
	{"equal", func(*xrand.RNG) float64 { return 1.5 }},
	{"ties", func(rng *xrand.RNG) float64 { return float64(1 + rng.Intn(3)) }},
	{"zeros", func(rng *xrand.RNG) float64 { return float64(rng.Intn(3)) * 0.5 * float64(rng.Intn(2)) }},
	{"allzero", func(*xrand.RNG) float64 { return 0 }},
	{"pareto", func(rng *xrand.RNG) float64 { return rng.Pareto(1, 1.5) }},
	{"signedzero", func(rng *xrand.RNG) float64 { return [...]float64{math.Copysign(0, -1), 0, 1, 2}[rng.Intn(4)] }},
}

// oracleShapes returns block counts for r ranks covering n < r, n = r,
// n % r == 0, exactly one ceil chunk (m = 1), all but one (m = r-1), the
// Fig 7c shape m = r/2, and a random remainder.
func oracleShapes(rng *xrand.RNG, r int) []int {
	q := 1 + rng.Intn(4)
	return []int{
		0, 1, r / 2, max(r-1, 0), r, q * r, q*r + 1, q*r + r - 1, q*r + r/2, q*r + rng.Intn(r),
	}
}

// oracleVariant is one live policy and the oracle it must match; spans > 0
// means it runs through forEachSpan with that many spans.
type oracleVariant struct {
	pol    Policy
	oracle func([]float64, int) Assignment
	spans  int
}

// matchOracle runs every variant on costs at r ranks (the span variants at
// 1, 2 and 8 procs) and fails on the first block placed differently from
// the oracle. It returns the number of assignments compared.
func matchOracle(t *testing.T, vs []oracleVariant, dist string, costs []float64, r int) int {
	t.Helper()
	n, draws := len(costs), 0
	for _, v := range vs {
		if v.spans > n {
			continue // the old split is undefined below one block per span
		}
		want := v.oracle(costs, r)
		procs := []int{0}
		if v.spans > 0 {
			procs = []int{1, 2, 8}
		}
		for _, p := range procs {
			got := withGOMAXPROCS(p, func() Assignment { return v.pol.Assign(costs, r) })
			draws++
			if err := Validate(got, n, r); err != nil {
				t.Fatalf("%s %s n=%d r=%d procs=%d: %v", v.pol.Name(), dist, n, r, p, err)
			}
			for b := range want {
				if got[b] != want[b] {
					t.Fatalf("%s %s n=%d r=%d procs=%d: block %d on rank %d, oracle %d\ncosts %v\n got %v\nwant %v",
						v.pol.Name(), dist, n, r, p, b, got[b], want[b], costs, got, want)
				}
			}
		}
	}
	return draws
}

func TestKernelsMatchOracle(t *testing.T) {
	rankCounts := []int{1, 2, 3, 5, 8, 16, 33, 64, 100}
	if testing.Short() {
		rankCounts = []int{1, 3, 16, 33}
	}
	draws := 0
	for _, r := range rankCounts {
		chunk := max(r/4, 2)
		zones := 3
		vs := []oracleVariant{
			{CDP{Restricted: true}, oracleCDP(0), 0},
			{CDP{Restricted: true, ChunkSize: chunk}, oracleCDP(chunk), (r + chunk - 1) / chunk},
			{LPT{}, oracleLPT, 0},
			{CPLX{X: 50, TopOnly: true}, oracleCPLX(50, 0, true), 0},
			{CPLX{X: 30, ChunkSize: chunk, TopOnly: true}, oracleCPLX(30, chunk, true), (r + chunk - 1) / chunk},
			{Zonal{Inner: LPT{}, Zones: zones}, oracleZonal(zones, oracleLPT), zones},
			{Zonal{Inner: CPLX{X: 50, ChunkSize: chunk}, Zones: zones}, oracleZonal(zones, oracleCPLX(50, chunk, false)), zones},
		}
		for _, x := range []int{0, 25, 50, 75, 100} {
			vs = append(vs,
				oracleVariant{CPLX{X: x}, oracleCPLX(x, 0, false), 0},
				oracleVariant{CPLX{X: x, ChunkSize: chunk}, oracleCPLX(x, chunk, false), (r + chunk - 1) / chunk})
		}
		rng := xrand.New(uint64(1000 + r))
		for _, dist := range oracleDists {
			for _, n := range oracleShapes(rng, r) {
				costs := make([]float64, n)
				for i := range costs {
					costs[i] = dist.draw(rng)
				}
				draws += matchOracle(t, vs, dist.name, costs, r)
			}
		}
	}
	if !testing.Short() {
		// The Fig 7c and bench shape, where the radix order runs all its
		// digit passes and the first round hands thousands of ranks to the
		// heap. The CDP seeds are chunked as in the bench: the oracle's
		// unchunked DP matrix would take ~75 MB at n = 1.5r.
		const r, chunk = 4096, 512
		vs := []oracleVariant{
			{LPT{}, oracleLPT, 0},
			{CPLX{X: 50, ChunkSize: chunk}, oracleCPLX(50, chunk, false), r / chunk},
			{CPLX{X: 100, ChunkSize: chunk}, oracleCPLX(100, chunk, false), r / chunk},
		}
		rng := xrand.New(4096)
		for _, dist := range oracleDists {
			if dist.name != "uniform" && dist.name != "pareto" && dist.name != "ties" {
				continue
			}
			for _, n := range []int{r + r/2, 2 * r} {
				costs := make([]float64, n)
				for i := range costs {
					costs[i] = dist.draw(rng)
				}
				draws += matchOracle(t, vs, dist.name, costs, r)
			}
		}
	}
	t.Logf("%d assignments identical to the oracle", draws)
}

// TestDescOrderMatchesComparator: the radix order is the comparator order
// LPT used to sort with — descending value, ties on the incoming position —
// over values that exercise every digit and the sign: negatives, ±0, ±Inf,
// subnormals and runs of equal values. −0 and +0 must tie; no assignment
// can show it, since zero-cost blocks all land on the root rank.
func TestDescOrderMatchesComparator(t *testing.T) {
	special := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1, -1, 2.5}
	rng := xrand.New(11)
	for trial := 0; trial < 200; trial++ {
		vals := make([]float64, rng.Intn(300))
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = special[rng.Intn(len(special))]
			case 1:
				vals[i] = (rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(200)-100))
			default:
				vals[i] = float64(rng.Intn(5) - 2)
			}
		}
		// A shuffled permutation, so the tie-break is on incoming position
		// rather than on index.
		idx := make([]int32, len(vals))
		for i := range idx {
			idx[i] = int32(i)
		}
		for i := len(idx) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
		want := append([]int32(nil), idx...)
		sort.SliceStable(want, func(i, j int) bool { return vals[want[i]] > vals[want[j]] })
		got := descOrder(vals, idx, make([]int32, len(idx)))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: vals %v\n got %v\nwant %v", trial, vals, got, want)
		}
	}
}

// withGOMAXPROCS runs f under the given GOMAXPROCS (0 leaves it alone) and
// restores the previous setting.
func withGOMAXPROCS[T any](procs int, f func() T) T {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	return f()
}

// TestRebalanceMatchesOracle drives the rebalance step alone from arbitrary
// (non-contiguous) starting assignments, which CPLX.Assign never produces:
// empty selected ranks, overlapping ends, every x.
func TestRebalanceMatchesOracle(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 300; trial++ {
		r := 1 + rng.Intn(24)
		n := rng.Intn(4 * r)
		dist := oracleDists[rng.Intn(len(oracleDists))]
		costs := make([]float64, n)
		start := make(Assignment, n)
		for i := range costs {
			costs[i] = dist.draw(rng)
			start[i] = int32(rng.Intn(r))
		}
		x := rng.Intn(101)
		topOnly := rng.Intn(2) == 0
		got := append(Assignment(nil), start...)
		want := append(Assignment(nil), start...)
		rebalance(costs, got, r, x, topOnly)
		oracleRebalance(costs, want, r, x, topOnly)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d %s n=%d r=%d x=%d topOnly=%v:\n got %v\nwant %v", trial, dist.name, n, r, x, topOnly, got, want)
		}
	}
}

// TestEqualCostBounds: anchored at 0 and n, monotone, never past n, and the
// first s spans hold at least min(s, n) blocks. (That it equals the old
// split wherever that was defined is TestKernelsMatchOracle's business.)
func TestEqualCostBounds(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(12)
		n := rng.Intn(3 * k)
		costs := make([]float64, n)
		dist := oracleDists[rng.Intn(len(oracleDists))]
		for i := range costs {
			costs[i] = dist.draw(rng)
		}
		b := equalCostBounds(prefixSums(costs), k)
		if len(b) != k+1 || b[0] != 0 || b[k] != n {
			t.Fatalf("n=%d k=%d: bounds %v not anchored at 0 and n", n, k, b)
		}
		for s := 1; s <= k; s++ {
			if b[s] < b[s-1] || b[s] > n {
				t.Fatalf("n=%d k=%d: bounds %v not monotone within [0,n]", n, k, b)
			}
			if b[s] < min(s, n) {
				t.Fatalf("n=%d k=%d: first %d spans hold %d blocks: %v", n, k, s, b[s], b)
			}
		}
	}
}

// optimalContiguousMakespan returns the exact optimal makespan over ALL
// contiguous partitions of costs into at most r segments, via binary search
// on the answer with a greedy feasibility check: the reference optimum the
// CDP solutions are validated against.
func optimalContiguousMakespan(costs []float64, r int) float64 {
	if len(costs) == 0 || r <= 0 {
		return 0
	}
	lo, hi := 0.0, 0.0
	for _, c := range costs {
		hi += c
		if c > lo {
			lo = c
		}
	}
	feasible := func(cap float64) bool {
		segs, cur := 1, 0.0
		for _, c := range costs {
			if cur+c > cap {
				segs++
				cur = c
				if segs > r {
					return false
				}
			} else {
				cur += c
			}
		}
		return true
	}
	for iter := 0; iter < 100 && hi-lo > 1e-12*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
