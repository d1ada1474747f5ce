package mesh

import (
	"reflect"
	"testing"

	"amrtools/internal/xrand"
)

// pairExchangesScan is PairExchanges by brute force: every one of the 26
// directions is tried, whether or not it can reach `to`. It is the
// reference the per-axis offset filter of PairExchanges must reproduce
// exactly — same entries, same order.
func pairExchangesScan(g Geometry, from, to BlockID) []PairEntry {
	if from == to {
		return nil
	}
	var out []PairEntry
	for ord, dir := range directions {
		nc, ok := g.NeighborCoord(from, dir)
		if !ok {
			continue
		}
		out = pairEntries(out, ord, dir, from, to, nc)
	}
	return out
}

// randomBalancedMesh refines random leaves of an nx×ny×nz root grid until
// it has about target leaves.
func randomBalancedMesh(t *testing.T, rng *xrand.RNG, dims [3]int, maxLevel, target int) *Mesh {
	t.Helper()
	m := NewUniform(dims[0], dims[1], dims[2], maxLevel)
	for tries := 0; m.NumLeaves() < target && tries < 4*target; tries++ {
		leaves := m.Leaves()
		if id := leaves[rng.Intn(len(leaves))].ID; m.CanRefine(id) {
			if err := m.Refine(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b, ok := m.CheckBalance(); !ok {
		t.Fatalf("mesh %v: %v and %v break 2:1 balance", dims, a, b)
	}
	return m
}

// TestPairExchangesMatchesDirectionScan: over random 2:1-balanced meshes,
// 1- and 2-wide root dimensions among them, PairExchanges must return exactly
// what the 26-direction scan returns, for every leaf and every partner
// NeighborsOf names, for random far leaves (both empty), and for blocks two
// levels apart (both empty).
func TestPairExchangesMatchesDirectionScan(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {1, 2, 1}, {2, 2, 2}, {2, 1, 3}, {3, 2, 1}, {4, 3, 2}, {1, 1, 4}}
	rng := xrand.New(29)
	pairs := 0
	for _, dims := range shapes {
		for rep := 0; rep < 3; rep++ {
			m := randomBalancedMesh(t, rng, dims, 3, 40+rng.Intn(120))
			g := m.Geometry()
			leaves := m.Leaves()
			compare := func(from, to BlockID) {
				pairs++
				got, want := PairExchanges(g, from, to), pairExchangesScan(g, from, to)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v: %v → %v: PairExchanges %v, scan %v", dims, from, to, got, want)
				}
			}
			for _, b := range leaves {
				for _, nb := range m.NeighborsOf(b.ID) {
					compare(b.ID, nb.ID)
				}
				compare(b.ID, b.ID)
				for i := 0; i < 4; i++ {
					compare(b.ID, leaves[rng.Intn(len(leaves))].ID)
				}
				if b.ID.Level >= 2 {
					compare(b.ID, b.ID.Parent().Parent())
				}
			}
		}
	}
	if pairs < 10000 {
		t.Fatalf("only %d pairs compared", pairs)
	}
}
