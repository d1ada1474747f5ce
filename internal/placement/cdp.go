package placement

import "fmt"

// CDP is the Contiguous-DP policy (§V-C): partition the SFC-ordered blocks
// into r contiguous segments minimizing the maximum segment cost (makespan),
// so it load-balances while preserving exactly the locality structure of the
// baseline.
//
// Restricted (the default, as in the paper) considers only the two chunk
// sizes ⌊n/r⌋ and ⌈n/r⌉, reducing complexity from O(n²r) to O(nr) while
// retaining solution quality; the DP is optimal within the explored sizes.
//
// ChunkSize > 0 enables the hierarchical chunking of §V-C ("Scaling CDP"):
// blocks are pre-split into contiguous super-chunks of approximately equal
// cost, each handled by an equal share of ranks in parallel. Chunking trades
// a little solution quality for placement latency; the paper uses 512 ranks
// per chunk at 4096 ranks.
type CDP struct {
	// Restricted limits segment sizes to {⌊n/r⌋, ⌈n/r⌉}. The unrestricted
	// O(n²r) DP is exact over all contiguous partitions but too slow beyond
	// small instances.
	Restricted bool
	// ChunkSize, when > 0, is the number of ranks per parallel chunk.
	ChunkSize int
}

// Name returns "cdp", "cdp-full", or "cdp-chunked<k>".
func (c CDP) Name() string {
	switch {
	case c.ChunkSize > 0:
		return fmt.Sprintf("cdp-chunked%d", c.ChunkSize)
	case !c.Restricted:
		return "cdp-full"
	default:
		return "cdp"
	}
}

// Assign partitions blocks contiguously to minimize makespan.
func (c CDP) Assign(costs []float64, nranks int) Assignment {
	checkRanks("cdp", nranks)
	if c.ChunkSize > 0 && nranks > c.ChunkSize {
		return c.assignChunked(costs, nranks)
	}
	var sizes []int
	if c.Restricted {
		sizes = cdpRestrictedSizes(new(cdpScratch), costs, nranks)
	} else {
		sizes = cdpFullSizes(costs, nranks)
	}
	return ContiguousFromSizes(len(costs), sizes)
}

// prefixSums returns W with W[i] = sum of costs[0:i].
func prefixSums(costs []float64) []float64 {
	w := make([]float64, len(costs)+1)
	for i, c := range costs {
		w[i+1] = w[i] + c
	}
	return w
}

// cdpScratch is the working memory of one restricted-CDP solve: prefix sums,
// the rolling DP row, the bit-packed backtrace and the resulting sizes. A
// zero value is ready to use; a fork-join worker reuses one across its spans
// (each buffer is regrown only when a span needs more than any before it).
type cdpScratch struct {
	w      []float64
	dp     []float64
	choice []uint64
	sizes  []int
}

// grow returns buf resliced to n entries with unspecified contents,
// reallocating (exactly n, no copy) only when its capacity is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// cdpRestrictedSizes solves the two-chunk-size DP. The returned sizes alias
// s and are valid until its next use.
//
// With floor = n/r and m = n mod r, a valid partition uses exactly m chunks
// of size floor+1 and r-m of size floor. State (k, c): after k chunks, c of
// them ceil-sized, covering exactly i = k*floor + c blocks. DP value is the
// minimum makespan; transitions append one floor- or ceil-sized chunk. State
// (k, c) exists for cMin(k) <= c <= cMax(k): at most k (and m) chunks so far
// were ceil-sized, and the r-k still to come can absorb the other m-c.
//
// Only one DP row is kept: row k overwrites row k-1 in place with c
// descending, so dp[c] and dp[c-1] still hold row k-1 when (k, c) is
// computed. Row k reads exactly the states of row k-1 that exist: the floor
// transition into (k, c) comes from (k-1, c), which exists unless c = k; the
// ceil transition comes from (k-1, c-1), which exists unless c = 0. Entries
// below cMin(k) go stale and entries above cMax(k) are uninitialised, but
// neither is read: cMin rises by at most one per k, so the lowest read at
// step k is dp[cMin(k)-1] = dp[cMin(k-1)], and the highest is dp[cMax(k-1)].
// The floor transition is the default and the ceil one wins only when
// strictly better; that choice is one bit per state.
// Complexity O(r·(m+1)) time — O(nr) worst case as in §V-C — and O(m) words
// plus r·(m+1) bits of memory.
func cdpRestrictedSizes(s *cdpScratch, costs []float64, r int) []int {
	n := len(costs)
	floor := n / r
	m := n % r // number of ceil-sized chunks
	s.sizes = grow(s.sizes, r)
	sizes := s.sizes
	if m == 0 { // one feasible partition (covers n == 0)
		for k := range sizes {
			sizes[k] = floor
		}
		return sizes
	}
	s.w = grow(s.w, n+1)
	w := s.w
	w[0] = 0
	for i, c := range costs {
		w[i+1] = w[i] + c
	}
	s.dp = grow(s.dp, m+1)
	s.dp[0] = 0
	// Bit c of row k is set if the k-th chunk of the best path into (k, c)
	// is ceil-sized.
	words := (m + 1 + 63) / 64
	s.choice = grow(s.choice, (r+1)*words)
	choice := s.choice
	clear(choice)
	for k := 1; k <= r; k++ {
		cMin := max(m-(r-k), 0)
		cMax := min(k, m)
		row := choice[k*words : (k+1)*words]
		// wk[c] = w[i] for the i = k*floor + c blocks covered; a floor-sized
		// k-th chunk starts at wf[c], a ceil-sized one at wf[c-1]. (floor
		// may be 0 when n < r: a floor-sized chunk is then empty.)
		wk := w[k*floor : k*floor+cMax+1]
		wf := w[(k-1)*floor : (k-1)*floor+cMax+1]
		dp := s.dp[:cMax+1]
		c := cMax
		if c == k { // every chunk so far ceil-sized
			v := dp[c-1]
			if seg := wk[c] - wf[c-1]; seg > v {
				v = seg
			}
			dp[c] = v
			row[c>>6] |= 1 << (c & 63)
			c--
		}
		for lo := max(cMin, 1); c >= lo; c-- {
			v := dp[c]
			if seg := wk[c] - wf[c]; seg > v {
				v = seg
			}
			ceil := dp[c-1]
			if seg := wk[c] - wf[c-1]; seg > ceil {
				ceil = seg
			}
			if ceil < v {
				v = ceil
				row[c>>6] |= 1 << (c & 63)
			}
			dp[c] = v
		}
		if cMin == 0 { // every chunk so far floor-sized
			if seg := wk[0] - wf[0]; seg > dp[0] {
				dp[0] = seg
			}
		}
	}
	// Reconstruct chunk sizes.
	c := m
	for k := r; k >= 1; k-- {
		if choice[k*words+c>>6]>>(c&63)&1 != 0 {
			sizes[k-1] = floor + 1
			c--
		} else {
			sizes[k-1] = floor
		}
	}
	return sizes
}

// cdpFullSizes solves the unrestricted contiguous partition DP
// DP[i][k] = min over j < i of max(DP[j][k-1], W[i]-W[j]) in O(n²r).
func cdpFullSizes(costs []float64, r int) []int {
	n := len(costs)
	if n == 0 {
		return make([]int, r)
	}
	w := prefixSums(costs)
	const inf = 1e308
	prev := make([]float64, n+1)
	cur := make([]float64, n+1)
	// choiceAt[k][i] = j minimizing the transition into DP[i][k].
	choiceAt := make([][]int32, r+1)
	for k := range choiceAt {
		choiceAt[k] = make([]int32, n+1)
	}
	for i := 0; i <= n; i++ {
		prev[i] = inf
	}
	prev[0] = 0
	for k := 1; k <= r; k++ {
		for i := 0; i <= n; i++ {
			cur[i] = inf
		}
		// DP[0][k] = 0: zero blocks on k ranks is valid (empty segments).
		cur[0] = 0
		for i := 1; i <= n; i++ {
			// The transition max(DP[j][k-1], W[i]-W[j]) is unimodal in j:
			// DP[j] non-increasing... not guaranteed monotonic in general
			// with empty segments, so scan all j (n² as per the paper).
			for j := 0; j < i; j++ {
				if prev[j] >= inf {
					continue
				}
				v := prev[j]
				if seg := w[i] - w[j]; seg > v {
					v = seg
				}
				if v < cur[i] {
					cur[i] = v
					choiceAt[k][i] = int32(j)
				}
			}
		}
		prev, cur = cur, prev
	}
	sizes := make([]int, r)
	i := n
	for k := r; k >= 1; k-- {
		j := int(choiceAt[k][i])
		if i == 0 {
			j = 0
		}
		sizes[k-1] = i - j
		i = j
	}
	return sizes
}

// assignChunked implements hierarchical chunking: split blocks into
// nranks/ChunkSize contiguous super-chunks of approximately equal total
// cost, then solve each super-chunk's restricted CDP in parallel with its
// share of the ranks.
func (c CDP) assignChunked(costs []float64, nranks int) Assignment {
	nChunks := (nranks + c.ChunkSize - 1) / c.ChunkSize
	a := make(Assignment, len(costs))
	forEachSpan(costs, nranks, nChunks, func(sp span, s *cdpScratch) {
		idx := sp.bLo
		for rr, size := range cdpRestrictedSizes(s, costs[sp.bLo:sp.bHi], sp.ranks) {
			for end := idx + size; idx < end; idx++ {
				a[idx] = int32(sp.rankLo + rr)
			}
		}
	})
	return a
}
