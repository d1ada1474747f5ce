package sfc_test

import (
	"sort"
	"testing"

	"amrtools/internal/mesh"
	"amrtools/internal/sfc"
	"amrtools/internal/xrand"
)

// bruteOwner is the replicated-global-table reference the partition replaces:
// block i of n (in curve order) belongs to the rank holding its contiguous
// chunk, first n%nranks ranks one block larger.
func bruteOwner(i, n, nranks int) int {
	lo, extra := n/nranks, n%nranks
	if i < (lo+1)*extra {
		return i / (lo + 1)
	}
	return extra + (i-(lo+1)*extra)/lo
}

func checkAgainstBrute(t *testing.T, keys []uint64, nranks int) {
	t.Helper()
	p := sfc.PartitionByCount(keys, nranks)
	if p.NumRanks() != nranks {
		t.Fatalf("NumRanks = %d, want %d", p.NumRanks(), nranks)
	}
	for i, k := range keys {
		want := bruteOwner(i, len(keys), nranks)
		if got := p.Owner(k); got != want {
			t.Fatalf("nranks=%d: Owner(key[%d]=%#x) = %d, want %d", nranks, i, k, got, want)
		}
		if !p.Contains(want, k) {
			t.Fatalf("nranks=%d: Contains(%d, key[%d]) = false", nranks, want, i)
		}
	}
}

func TestPartitionNonPowerOfTwoRanks(t *testing.T) {
	// 17 irregularly spaced keys across ragged rank counts.
	keys := make([]uint64, 17)
	for i := range keys {
		keys[i] = uint64(i)*uint64(i)*977 + uint64(i) // strictly ascending
	}
	for _, nranks := range []int{1, 2, 3, 5, 7, 12, 17} {
		checkAgainstBrute(t, keys, nranks)
	}
}

func TestPartitionEmptyRanks(t *testing.T) {
	// More ranks than keys: trailing ranks own empty ranges and must never
	// be returned by Owner, for any key in the space.
	keys := []uint64{10, 20, 30}
	p := sfc.PartitionByCount(keys, 8)
	checkAgainstBrute(t, keys, 8)
	for _, k := range []uint64{0, 9, 10, 15, 25, 30, 31, ^uint64(0)} {
		r := p.Owner(k)
		if r < 0 || r >= 3 {
			t.Fatalf("Owner(%#x) = %d, outside the non-empty ranks [0,3)", k, r)
		}
	}
	// The empty ranks report empty ranges and contain nothing.
	for r := 3; r < 8; r++ {
		if _, _, nonempty := p.Range(r); nonempty {
			t.Fatalf("rank %d: expected empty range", r)
		}
		for _, k := range []uint64{0, 10, 30, ^uint64(0)} {
			if p.Contains(r, k) {
				t.Fatalf("empty rank %d claims to contain %#x", r, k)
			}
		}
	}
	// Non-empty ranges tile the space: rank 2's range is closed at the top.
	if start, end, nonempty := p.Range(2); !nonempty || start != 30 || end != ^uint64(0) {
		t.Fatalf("Range(2) = (%#x, %#x, %v), want (30, MaxUint64, true)", start, end, nonempty)
	}
}

func TestPartitionSingleBlockForest(t *testing.T) {
	// One block, many ranks: rank 0 owns the whole key space.
	keys := []uint64{42}
	for _, nranks := range []int{1, 3, 64} {
		p := sfc.PartitionByCount(keys, nranks)
		for _, k := range []uint64{0, 41, 42, 43, ^uint64(0)} {
			if got := p.Owner(k); got != 0 {
				t.Fatalf("nranks=%d: Owner(%#x) = %d, want 0", nranks, k, got)
			}
		}
	}
}

func TestPartitionBytesIndependentOfKeys(t *testing.T) {
	a := sfc.PartitionByCount(make17(), 5)
	big := make([]uint64, 4096)
	for i := range big {
		big[i] = uint64(i)
	}
	b := sfc.PartitionByCount(big, 5)
	if a.Bytes() != b.Bytes() || a.Bytes() != 5*12 {
		t.Fatalf("Bytes = %d / %d, want both %d", a.Bytes(), b.Bytes(), 5*12)
	}
}

func make17() []uint64 {
	keys := make([]uint64, 17)
	for i := range keys {
		keys[i] = uint64(i) * 3
	}
	return keys
}

func TestPartitionRejectsBadInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("unsorted keys", func() { sfc.PartitionByCount([]uint64{2, 1}, 2) })
	mustPanic("duplicate keys", func() { sfc.PartitionByCount([]uint64{1, 1}, 2) })
	mustPanic("zero ranks", func() { sfc.PartitionByCount([]uint64{1}, 0) })
	mustPanic("empty Owner", func() { sfc.RangePartition{}.Owner(0) })
}

// hilbertBits returns the bits per dimension needed for a mesh's finest-level
// coordinates (root dims may not be powers of two, so this is derived from
// the actual extent, not maxLevel alone).
func hilbertBits(m *mesh.Mesh) int {
	dims := m.RootDims()
	maxDim := dims[0]
	if dims[1] > maxDim {
		maxDim = dims[1]
	}
	if dims[2] > maxDim {
		maxDim = dims[2]
	}
	bits := m.MaxLevel()
	for n := 1; n < maxDim; n <<= 1 {
		bits++
	}
	return bits
}

// TestPartitionHilbertMortonAgreement checks that the range partition gives
// the same answer as the brute-force global block→rank table under BOTH
// curves: the partition is curve-agnostic, so per curve, building it over
// that curve's sorted leaf keys must reproduce the curve's contiguous-chunk
// assignment exactly.
func TestPartitionHilbertMortonAgreement(t *testing.T) {
	rng := xrand.New(7)
	m := mesh.RandomRefined(2, 3, 2, 2, 90, rng)
	leaves := m.Leaves()
	bits := hilbertBits(m)
	shift := uint(0) // leaves' Key uses maxLevel normalization; mirror it for Hilbert

	type curve struct {
		name string
		key  func(id mesh.BlockID) uint64
	}
	curves := []curve{
		{"morton", func(id mesh.BlockID) uint64 { return id.Key(m.MaxLevel()) }},
		{"hilbert", func(id mesh.BlockID) uint64 {
			s := uint(m.MaxLevel()-id.Level) + shift
			return sfc.HilbertEncode3D(id.X<<s, id.Y<<s, id.Z<<s, bits)
		}},
	}
	for _, c := range curves {
		keys := make([]uint64, len(leaves))
		for i, b := range leaves {
			keys[i] = c.key(b.ID)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				t.Fatalf("%s: duplicate leaf key %#x", c.name, keys[i])
			}
		}
		for _, nranks := range []int{1, 4, 7, 13, 128} {
			p := sfc.PartitionByCount(keys, nranks)
			// Brute-force table: curve-order index → chunk rank.
			table := make(map[uint64]int, len(keys))
			for i, k := range keys {
				table[k] = bruteOwner(i, len(keys), nranks)
			}
			for _, b := range leaves {
				k := c.key(b.ID)
				if got, want := p.Owner(k), table[k]; got != want {
					t.Fatalf("%s nranks=%d: block %v Owner=%d, table=%d",
						c.name, nranks, b.ID, got, want)
				}
			}
		}
	}
}

// TestPartitionMaxDepthKeys exercises the extremes of the key space: keys at
// the deepest representable level (MaxLevel3D), including the corner block
// whose key is the largest encodable Morton code. Lookups below the first
// key and at ^uint64(0) must resolve — the first range starts at 0 and the
// last is closed at the top of the space.
func TestPartitionMaxDepthKeys(t *testing.T) {
	const maxC = uint32(1<<sfc.MaxLevel3D - 1) // deepest-level coordinate max
	coords := [][3]uint32{
		{0, 0, 1}, {1, 2, 3}, {maxC / 2, 1, maxC / 3}, {maxC, maxC - 1, maxC}, {maxC, maxC, maxC},
	}
	keys := make([]uint64, len(coords))
	for i, c := range coords {
		keys[i] = sfc.Key3DAtLevel(c[0], c[1], c[2], sfc.MaxLevel3D, sfc.MaxLevel3D)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, nranks := range []int{1, 2, 3, 5, 8} {
		checkAgainstBrute(t, keys, nranks)
		p := sfc.PartitionByCount(keys, nranks)
		// Keys strictly below the first block key belong to the first
		// non-empty rank; the very top of the space to the last.
		if got := p.Owner(0); got != 0 {
			t.Fatalf("nranks=%d: Owner(0) = %d, want 0", nranks, got)
		}
		last := bruteOwner(len(keys)-1, len(keys), nranks)
		if got := p.Owner(^uint64(0)); got != last {
			t.Fatalf("nranks=%d: Owner(max) = %d, want %d", nranks, got, last)
		}
		if _, end, ok := p.Range(last); !ok || end != ^uint64(0) {
			t.Fatalf("nranks=%d: last range end = %#x ok=%v, want top-closed", nranks, end, ok)
		}
	}
}

// TestPartitionRoutingCoversWholeSpace: for every rank count, every probe
// key in the space resolves to exactly one rank whose Range contains it —
// the routing invariant the distributed directory's two-hop lookup rests on.
func TestPartitionRoutingCoversWholeSpace(t *testing.T) {
	rng := xrand.New(99)
	keys := make([]uint64, 33)
	seen := map[uint64]bool{}
	for i := range keys {
		k := rng.Uint64()
		for seen[k] {
			k = rng.Uint64()
		}
		seen[k] = true
		keys[i] = k
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	probes := append([]uint64{0, 1, ^uint64(0)}, keys...)
	for i := range keys {
		probes = append(probes, keys[i]-1, keys[i]+1)
	}
	for _, nranks := range []int{1, 2, 3, 8, 33, 64} {
		p := sfc.PartitionByCount(keys, nranks)
		for _, k := range probes {
			owner := p.Owner(k)
			holders := 0
			for r := 0; r < nranks; r++ {
				if start, end, ok := p.Range(r); ok && k >= start && k < end {
					holders++
					if r != owner {
						t.Fatalf("nranks=%d: key %#x in rank %d's range but Owner=%d",
							nranks, k, r, owner)
					}
				}
			}
			// The top key sits in the last (top-closed) range, whose
			// half-open Range() reports end=^uint64(0); it is still owned.
			if holders != 1 && k != ^uint64(0) {
				t.Fatalf("nranks=%d: key %#x held by %d ranges", nranks, k, holders)
			}
		}
	}
}
