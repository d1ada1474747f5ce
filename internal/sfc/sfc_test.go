package sfc

import (
	"sort"
	"testing"
	"testing/quick"

	"amrtools/internal/xrand"
)

func TestEncode3DKnownValues(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		want    uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
		{3, 3, 3, 63},
	}
	for _, c := range cases {
		if got := Encode3D(c.x, c.y, c.z); got != c.want {
			t.Errorf("Encode3D(%d,%d,%d) = %d, want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestMorton3DRoundTrip(t *testing.T) {
	if err := quick.Check(func(x, y, z uint32) bool {
		x &= 0x1fffff
		y &= 0x1fffff
		z &= 0x1fffff
		gx, gy, gz := decode3D(Encode3D(x, y, z))
		return gx == x && gy == y && gz == z
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Morton order of a full grid must equal the Z-order traversal: sorting by
// key is the same as recursive octant traversal. We check monotonicity in
// each coordinate along axis-aligned lines within an octant cell.
func TestMorton3DOrderIsZOrder(t *testing.T) {
	// In a 2x2x2 grid the order must be exactly the octant order
	// (x fastest, then y, then z).
	type pt struct{ x, y, z uint32 }
	var pts []pt
	for z := uint32(0); z < 2; z++ {
		for y := uint32(0); y < 2; y++ {
			for x := uint32(0); x < 2; x++ {
				pts = append(pts, pt{x, y, z})
			}
		}
	}
	for i, p := range pts {
		if got := Encode3D(p.x, p.y, p.z); got != uint64(i) {
			t.Errorf("octant order: Encode3D(%v) = %d, want %d", p, got, i)
		}
	}
}

func TestKey3DAtLevelDFSOrdering(t *testing.T) {
	// A coarse block at level 0 that was refined: its 8 children at level 1
	// must occupy a contiguous key range, all before a sibling coarse block
	// that follows in DFS order.
	maxLevel := 4
	parentNext := Key3DAtLevel(1, 0, 0, 0, maxLevel) // sibling after (0,0,0)
	var childKeys []uint64
	for dz := uint32(0); dz < 2; dz++ {
		for dy := uint32(0); dy < 2; dy++ {
			for dx := uint32(0); dx < 2; dx++ {
				childKeys = append(childKeys, Key3DAtLevel(dx, dy, dz, 1, maxLevel))
			}
		}
	}
	sorted := append([]uint64(nil), childKeys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := range childKeys {
		if childKeys[i] != sorted[i] {
			t.Fatalf("children not emitted in key order: %v", childKeys)
		}
		if childKeys[i] >= parentNext {
			t.Fatalf("child key %d not before next sibling key %d", childKeys[i], parentNext)
		}
	}
}

func TestKey3DAtLevelUniqueAcrossLevels(t *testing.T) {
	// Non-overlapping leaves at different levels must have distinct keys.
	maxLevel := 3
	seen := map[uint64]string{}
	add := func(name string, key uint64) {
		if prev, dup := seen[key]; dup {
			t.Fatalf("duplicate key %d for %s and %s", key, name, prev)
		}
		seen[key] = name
	}
	// Level-1 block (0,0,0) refined into 8 level-2 children; its level-1
	// siblings stay coarse.
	for dz := uint32(0); dz < 2; dz++ {
		for dy := uint32(0); dy < 2; dy++ {
			for dx := uint32(0); dx < 2; dx++ {
				add("child", Key3DAtLevel(dx, dy, dz, 2, maxLevel))
			}
		}
	}
	add("sib1", Key3DAtLevel(1, 0, 0, 1, maxLevel))
	add("sib2", Key3DAtLevel(0, 1, 0, 1, maxLevel))
	add("sib3", Key3DAtLevel(1, 1, 1, 1, maxLevel))
}

func TestHilbertRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 2, 3, 5, 8} {
		mask := uint32(1)<<uint(bits) - 1
		if err := quick.Check(func(x, y, z uint32) bool {
			x &= mask
			y &= mask
			z &= mask
			gx, gy, gz := hilbertDecode3D(HilbertEncode3D(x, y, z, bits), bits)
			return gx == x && gy == y && gz == z
		}, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
	}
}

func TestHilbertIsBijection(t *testing.T) {
	bits := 3
	n := uint32(1) << uint(bits)
	seen := make(map[uint64]bool)
	for z := uint32(0); z < n; z++ {
		for y := uint32(0); y < n; y++ {
			for x := uint32(0); x < n; x++ {
				k := HilbertEncode3D(x, y, z, bits)
				if k >= uint64(n)*uint64(n)*uint64(n) {
					t.Fatalf("key %d out of range", k)
				}
				if seen[k] {
					t.Fatalf("duplicate Hilbert key %d", k)
				}
				seen[k] = true
			}
		}
	}
}

// The Hilbert curve visits adjacent cells consecutively: consecutive indices
// must be unit-distance apart in space. (This is the defining property; the
// Morton curve violates it at octant boundaries.)
func TestHilbertUnitSteps(t *testing.T) {
	bits := 4
	total := uint64(1) << uint(3*bits)
	px, py, pz := hilbertDecode3D(0, bits)
	for k := uint64(1); k < total; k++ {
		x, y, z := hilbertDecode3D(k, bits)
		d := absDiff(x, px) + absDiff(y, py) + absDiff(z, pz)
		if d != 1 {
			t.Fatalf("Hilbert step %d: distance %d from previous cell", k, d)
		}
		px, py, pz = x, y, z
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// Both curves must preserve locality far better than a random ordering of
// cells. (Hilbert does not dominate Morton on *average* pair distance — it
// optimizes consecutive steps — so we benchmark both against random.)
func TestCurvesBeatRandomLocality(t *testing.T) {
	bits := 4
	n := uint32(1) << uint(bits)
	var pairs [][2]uint64
	cell := func(x, y, z uint32) uint64 { return uint64(x) | uint64(y)<<21 | uint64(z)<<42 }
	for z := uint32(0); z < n; z++ {
		for y := uint32(0); y < n; y++ {
			for x := uint32(0); x < n; x++ {
				if x+1 < n {
					pairs = append(pairs, [2]uint64{cell(x, y, z), cell(x+1, y, z)})
				}
				if y+1 < n {
					pairs = append(pairs, [2]uint64{cell(x, y, z), cell(x, y+1, z)})
				}
				if z+1 < n {
					pairs = append(pairs, [2]uint64{cell(x, y, z), cell(x, y, z+1)})
				}
			}
		}
	}
	mortonOrder := map[uint64]int{}
	hilbertOrder := map[uint64]int{}
	type kv struct {
		key  uint64
		cell uint64
	}
	var ms, hs []kv
	for z := uint32(0); z < n; z++ {
		for y := uint32(0); y < n; y++ {
			for x := uint32(0); x < n; x++ {
				c := cell(x, y, z)
				ms = append(ms, kv{Encode3D(x, y, z), c})
				hs = append(hs, kv{HilbertEncode3D(x, y, z, bits), c})
			}
		}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
	sort.Slice(hs, func(i, j int) bool { return hs[i].key < hs[j].key })
	for i := range ms {
		mortonOrder[ms[i].cell] = i
		hilbertOrder[hs[i].cell] = i
	}
	randomOrder := map[uint64]int{}
	perm := xrand.New(77).Perm(len(ms))
	for i := range ms {
		randomOrder[ms[i].cell] = perm[i]
	}
	md := avgNeighborDistance(mortonOrder, pairs)
	hd := avgNeighborDistance(hilbertOrder, pairs)
	rd := avgNeighborDistance(randomOrder, pairs)
	if md >= rd/2 {
		t.Errorf("Morton avg neighbor distance %v not clearly better than random %v", md, rd)
	}
	if hd >= rd/2 {
		t.Errorf("Hilbert avg neighbor distance %v not clearly better than random %v", hd, rd)
	}
}

// avgNeighborDistance returns the mean absolute index distance, under the
// ordering order[cell] = position, between the two cells of each pair.
func avgNeighborDistance(order map[uint64]int, pairs [][2]uint64) float64 {
	sum := 0
	for _, p := range pairs {
		d := order[p[0]] - order[p[1]]
		sum += max(d, -d)
	}
	return float64(sum) / float64(len(pairs))
}

func TestRandomKeysSortStable(t *testing.T) {
	// Keys at the same level must sort identically to coordinate-morton order.
	r := xrand.New(31)
	const level, maxLevel = 3, 6
	n := uint32(1) << level
	type blk struct {
		x, y, z uint32
		key     uint64
	}
	var blks []blk
	for i := 0; i < 100; i++ {
		b := blk{x: uint32(r.Intn(int(n))), y: uint32(r.Intn(int(n))), z: uint32(r.Intn(int(n)))}
		b.key = Key3DAtLevel(b.x, b.y, b.z, level, maxLevel)
		blks = append(blks, b)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i].key < blks[j].key })
	for i := 1; i < len(blks); i++ {
		a, b := blks[i-1], blks[i]
		if Encode3D(a.x, a.y, a.z) > Encode3D(b.x, b.y, b.z) {
			t.Fatal("level-normalized key order disagrees with same-level morton order")
		}
	}
}

func BenchmarkEncode3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Encode3D(uint32(i), uint32(i>>3), uint32(i>>5))
	}
}

func BenchmarkHilbertEncode3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = HilbertEncode3D(uint32(i)&0xffff, uint32(i>>3)&0xffff, uint32(i>>5)&0xffff, 16)
	}
}
