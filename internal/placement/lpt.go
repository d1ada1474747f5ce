package placement

import "math"

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
	checkRanks("lpt", nranks)
	buf := make([]int32, 2*len(costs))
	blocks := buf[:len(costs)]
	for i := range blocks {
		blocks[i] = int32(i)
	}
	h := make([]rankLoad, nranks)
	for r := range h {
		h[r].rank = int32(r)
	}
	a := make(Assignment, len(costs))
	lptInto(costs, blocks, buf[len(costs):], h, a)
	return a
}

// rankLoad is a min-heap entry: the rank with the smallest load (ties on
// rank id) sits on top.
type rankLoad struct {
	load float64
	rank int32
}

func (a rankLoad) less(b rankLoad) bool {
	if a.load != b.load {
		return a.load < b.load
	}
	return a.rank < b.rank
}

// sift restores the min-heap property of h below position i, where h[i] may
// be heavier than its children. It is Floyd's bottom-up variant: the hole
// walks the smaller-child path all the way to a leaf, one compare per level,
// and h[i]'s entry then climbs back to its place. LPT's sifts start from a
// rank that has just taken a block, which usually belongs near the bottom,
// so the climb is short and the top-down early exit would rarely fire.
func sift(h []rankLoad, i int) {
	e := h[i]
	top := i
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if right := child + 1; right < len(h) && h[right].less(h[child]) {
			child = right
		}
		h[i] = h[child]
		i = child
	}
	for i > top {
		parent := (i - 1) / 2
		if !e.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// lptInto runs LPT: blocks (global indices into costs, in ascending order)
// are placed heaviest first, ties on ascending index, each onto the
// least-loaded rank of h, and out[idx] receives the rank. tmp is scratch of
// len(blocks). h holds the participating ranks in ascending rank order, each
// once and each at load 0 — both callers' contract, which the first round
// relies on. (load, rank) is a strict total order, so the rank chosen at
// every step does not depend on the heap's layout. blocks, tmp and h are
// overwritten. This is the shared kernel used by both pure LPT and the CPLX
// rebalance stage.
//
// The order comes from descOrder. Equal costs tie on index, −0 and +0
// included. A NaN cost, which no comparison order can place, lands by its
// sign bit: a positive NaN before +Inf, a negative one after −Inf.
//
// First round: while the k-th heaviest block has a positive cost, every rank
// from h[k] on is still at load 0, so (load, rank) picks h[k] itself and no
// heap is needed. The first block that is not positive (zero, negative or
// NaN) ends the round, since its rank would stay the minimum. h is heapified
// once after the round, and every later step takes the root.
func lptInto(costs []float64, blocks, tmp []int32, h []rankLoad, out Assignment) {
	blocks = descOrder(costs, blocks, tmp)
	k := 0
	for ; k < len(blocks) && k < len(h); k++ {
		c := costs[blocks[k]]
		if !(c > 0) {
			break
		}
		out[blocks[k]] = h[k].rank
		h[k].load = c
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		sift(h, i)
	}
	for _, b := range blocks[k:] {
		out[b] = h[0].rank
		h[0].load += costs[b]
		sift(h, 0)
	}
}

// descKey maps a float64 to a uint64 whose ascending order is the value's
// descending order: a positive value's bits with all but the sign flipped, a
// negative value's bits unchanged. −0 maps to +0's key, since the two
// compare equal.
func descKey(v float64) uint64 {
	if v == 0 {
		v = 0 // −0 → +0
	}
	b := math.Float64bits(v)
	return b ^ ^uint64(int64(b)>>63)>>1
}

// descOrder sorts idx by descending vals[idx[i]] with a stable LSD radix
// sort over descKey, eleven bits per pass, and returns the sorted
// permutation, which is either idx or tmp (scratch of len(idx)). Stability
// keeps idx's incoming order among equal values, so callers that pass
// ascending indices get ties broken on the lower index. A pass in which
// every key has the same digit is skipped, as the top one (the sign and the
// exponent's high bits) usually is. Keys are recomputed from vals on every pass
// rather than stored, so the scratch is one int32 per element.
func descOrder(vals []float64, idx, tmp []int32) []int32 {
	if len(idx) < 2 {
		return idx
	}
	const bits, mask = 11, 1<<11 - 1
	var counts [(64 + bits - 1) / bits][mask + 1]int32
	for _, i := range idx {
		k := descKey(vals[i])
		for d := range counts {
			counts[d][k>>(bits*d)&mask]++
		}
	}
	n := int32(len(idx))
	first := descKey(vals[idx[0]])
	for d := range counts {
		shift := bits * uint(d)
		c := &counts[d]
		if c[first>>shift&mask] == n {
			continue
		}
		var sum int32
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, i := range idx {
			b := descKey(vals[i]) >> shift & mask
			tmp[c[b]] = i
			c[b]++
		}
		idx, tmp = tmp, idx
	}
	return idx
}
