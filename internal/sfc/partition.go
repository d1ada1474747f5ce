package sfc

import (
	"fmt"
	"sort"
)

// RangePartition divides the 64-bit SFC key space into one contiguous,
// half-open key range per rank; ranks holding no blocks own empty ranges and
// are never returned by lookups.
//
// This is the distributed-forest ownership primitive (Schornbaum & Rüde's
// space-filling-curve balancing without replicated block lists): instead of
// every rank holding a global block→owner table, any rank can resolve the
// *home* rank of any block from the splitter array alone, and only the home
// rank holds the authoritative per-block records for its range. The splitter
// array is the only structure replicated on every rank, and its size is
// O(nranks) — independent of the global block count.
//
// The partition is curve-agnostic: it operates on opaque uint64 keys, so the
// same lookup serves Morton (Key3DAtLevel) and Hilbert (HilbertEncode3D)
// orderings — only the key construction differs.
type RangePartition struct {
	// starts[i] is the first key of the i-th non-empty range; starts[0] is
	// always 0 so every key in the space resolves. Strictly ascending.
	starts []uint64
	// ranks[i] is the rank owning the i-th non-empty range.
	ranks []int32
	// nranks is the total rank count, including ranks with empty ranges.
	nranks int
}

// PartitionByCount splits n sorted keys into nranks near-equal contiguous
// chunks (the first n mod nranks ranks receive one extra key — the same
// convention as the contiguous baseline placement) and returns the partition
// whose rank ranges begin at each chunk's first key. When n < nranks the
// trailing ranks get empty ranges. Keys must be strictly ascending (leaf SFC
// keys are unique by construction); the call panics otherwise, and on
// nranks <= 0.
func PartitionByCount(keys []uint64, nranks int) RangePartition {
	if nranks <= 0 {
		panic(fmt.Sprintf("sfc: partition over %d ranks", nranks))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			panic(fmt.Sprintf("sfc: partition keys not strictly ascending at %d (%#x after %#x)",
				i, keys[i], keys[i-1]))
		}
	}
	n := len(keys)
	p := RangePartition{nranks: nranks}
	lo, extra := n/nranks, n%nranks
	for r, idx := 0, 0; r < nranks && idx < n; r++ {
		start := keys[idx]
		if r == 0 {
			start = 0 // the first range starts at the bottom of the key space
		}
		p.starts = append(p.starts, start)
		p.ranks = append(p.ranks, int32(r))
		idx += lo
		if r < extra {
			idx++
		}
	}
	return p
}

// NumRanks returns the total rank count, including empty-range ranks.
func (p RangePartition) NumRanks() int { return p.nranks }

// Owner returns the rank whose range contains key: the owner of the last
// non-empty range starting at or below key. Ranks with empty ranges are
// never returned. It panics on a partition with no blocks.
func (p RangePartition) Owner(key uint64) int {
	if len(p.starts) == 0 {
		panic("sfc: Owner on a partition with no blocks")
	}
	// First range starting strictly after key, minus one. starts[0] == 0, so
	// the search never resolves to -1.
	i := sort.Search(len(p.starts), func(i int) bool { return p.starts[i] > key })
	return int(p.ranks[i-1])
}

// Contains reports whether key falls in rank r's range; always false for a
// rank with an empty range.
func (p RangePartition) Contains(r int, key uint64) bool {
	return len(p.starts) > 0 && p.Owner(key) == r
}

// Range returns rank r's key range [start, end) and whether it is non-empty.
// The last non-empty range is closed at the top of the key space and reports
// end = MaxUint64. Empty ranks report (0, 0, false).
func (p RangePartition) Range(r int) (start, end uint64, nonempty bool) {
	i := sort.Search(len(p.ranks), func(i int) bool { return int(p.ranks[i]) >= r })
	if i == len(p.ranks) || int(p.ranks[i]) != r {
		return 0, 0, false
	}
	if i+1 < len(p.starts) {
		return p.starts[i], p.starts[i+1], true
	}
	return p.starts[i], ^uint64(0), true
}

// Bytes returns the memory footprint of the splitter arrays — the per-rank
// replicated metadata cost of the partition, O(nranks) and independent of
// the global block count.
func (p RangePartition) Bytes() int { return len(p.starts)*8 + len(p.ranks)*4 }
