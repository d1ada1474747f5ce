package mesh

import (
	"testing"
	"testing/quick"

	"amrtools/internal/xrand"
)

func TestNewUniform(t *testing.T) {
	m := NewUniform(4, 2, 3, 5)
	if got := m.NumLeaves(); got != 24 {
		t.Fatalf("NumLeaves = %d, want 24", got)
	}
	if d := m.RootDims(); d != [3]int{4, 2, 3} {
		t.Fatalf("RootDims = %v", d)
	}
	if m.MaxLevel() != 5 {
		t.Fatalf("MaxLevel = %d", m.MaxLevel())
	}
	leaves := m.Leaves()
	for i, b := range leaves {
		if b.SFCIndex != i {
			t.Fatalf("SFCIndex mismatch at %d", i)
		}
		if b.ID.Level != 0 {
			t.Fatalf("unexpected level %d", b.ID.Level)
		}
	}
}

func TestNewUniformPanics(t *testing.T) {
	for _, c := range []struct{ nx, ny, nz, ml int }{
		{0, 1, 1, 0}, {1, -1, 1, 0}, {1, 1, 1, -1}, {1 << 20, 1, 1, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewUniform(%v) did not panic", c)
				}
			}()
			NewUniform(c.nx, c.ny, c.nz, c.ml)
		}()
	}
}

func TestBlockIDParentChildren(t *testing.T) {
	id := BlockID{Level: 2, X: 5, Y: 2, Z: 7}
	if p := id.Parent(); p != (BlockID{Level: 1, X: 2, Y: 1, Z: 3}) {
		t.Fatalf("Parent = %v", p)
	}
	kids := id.Children()
	for i, k := range kids {
		if k.Parent() != id {
			t.Fatalf("child %d parent mismatch", i)
		}
		if k.ChildIndex() != i {
			t.Fatalf("child %d index = %d", i, k.ChildIndex())
		}
	}
}

func TestParentOfRootPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Parent of root did not panic")
		}
	}()
	BlockID{Level: 0}.Parent()
}

func TestRefineBasics(t *testing.T) {
	m := NewUniform(2, 2, 2, 3)
	id := BlockID{Level: 0, X: 0, Y: 0, Z: 0}
	if err := m.Refine(id); err != nil {
		t.Fatal(err)
	}
	if m.NumLeaves() != 8-1+8 {
		t.Fatalf("NumLeaves = %d, want 15", m.NumLeaves())
	}
	if m.IsLeaf(id) {
		t.Fatal("refined block still a leaf")
	}
	if err := m.Refine(id); err == nil {
		t.Fatal("refining a non-leaf did not error")
	}
}

func TestRefineAtMaxLevelFails(t *testing.T) {
	m := NewUniform(1, 1, 1, 0)
	if err := m.Refine(BlockID{}); err == nil {
		t.Fatal("refining at maxLevel did not error")
	}
}

func TestRefineMaintainsBalance(t *testing.T) {
	m := NewUniform(4, 4, 4, 4)
	// Drive one corner block to the deepest level; ripple must keep 2:1.
	id := BlockID{Level: 0, X: 0, Y: 0, Z: 0}
	for l := 0; l < 4; l++ {
		if err := m.Refine(id); err != nil {
			t.Fatal(err)
		}
		id = id.Children()[0]
	}
	if a, b, ok := m.CheckBalance(); !ok {
		t.Fatalf("balance violated between %v and %v", a, b)
	}
}

func TestCoarsenRoundTrip(t *testing.T) {
	m := NewUniform(2, 2, 2, 2)
	id := BlockID{Level: 0, X: 1, Y: 1, Z: 1}
	if err := m.Refine(id); err != nil {
		t.Fatal(err)
	}
	if !m.CanCoarsen(id) {
		t.Fatal("CanCoarsen = false for a freshly refined octet")
	}
	if err := m.Coarsen(id); err != nil {
		t.Fatal(err)
	}
	if m.NumLeaves() != 8 {
		t.Fatalf("NumLeaves after round trip = %d, want 8", m.NumLeaves())
	}
	if !m.IsLeaf(id) {
		t.Fatal("coarsened block is not a leaf")
	}
}

func TestCoarsenRefusesBalanceViolation(t *testing.T) {
	m := NewUniform(2, 1, 1, 3)
	a := BlockID{Level: 0, X: 0, Y: 0, Z: 0}
	b := BlockID{Level: 0, X: 1, Y: 0, Z: 0}
	if err := m.Refine(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Refine(b); err != nil {
		t.Fatal(err)
	}
	// Refine a's +x-side child once more: now b's children (level 1) touch
	// level-2 leaves, so coarsening b would create a level-0 leaf adjacent
	// to level-2 leaves — a 2:1 violation.
	child := BlockID{Level: 1, X: 1, Y: 0, Z: 0}
	if err := m.Refine(child); err != nil {
		t.Fatal(err)
	}
	if m.CanCoarsen(b) {
		t.Fatal("CanCoarsen allowed a 2:1 violation")
	}
	if err := m.Coarsen(b); err == nil {
		t.Fatal("Coarsen allowed a 2:1 violation")
	}
}

func TestCoarsenRequiresAllChildren(t *testing.T) {
	m := NewUniform(2, 1, 1, 2)
	a := BlockID{Level: 0, X: 0, Y: 0, Z: 0}
	if err := m.Refine(a); err != nil {
		t.Fatal(err)
	}
	// Refine one child: now a's children are not all leaves.
	if err := m.Refine(a.Children()[0]); err != nil {
		t.Fatal(err)
	}
	if m.CanCoarsen(a) {
		t.Fatal("CanCoarsen = true with a refined child")
	}
}

func TestLeavesAreSFCSorted(t *testing.T) {
	m := NewUniform(2, 2, 2, 3)
	rng := xrand.New(5)
	for i := 0; i < 10; i++ {
		leaves := m.Leaves()
		b := leaves[rng.Intn(len(leaves))]
		if m.CanRefine(b.ID) {
			m.Refine(b.ID)
		}
	}
	leaves := m.Leaves()
	for i := 1; i < len(leaves); i++ {
		if leaves[i-1].ID.Key(m.MaxLevel()) >= leaves[i].ID.Key(m.MaxLevel()) {
			t.Fatalf("leaves not strictly SFC sorted at %d", i)
		}
	}
}

// DFS property: after refining a block, its 8 children occupy exactly the
// contiguous SFC positions the parent occupied.
func TestRefinementPreservesDFSContiguity(t *testing.T) {
	m := NewUniform(2, 2, 2, 2)
	leaves := m.Leaves()
	target := leaves[3].ID
	prevIdx := 3
	if err := m.Refine(target); err != nil {
		t.Fatal(err)
	}
	leaves = m.Leaves()
	kids := target.Children()
	for i, k := range kids {
		idx := -1
		for _, b := range leaves {
			if b.ID == k {
				idx = b.SFCIndex
				break
			}
		}
		if idx != prevIdx+i {
			t.Fatalf("child %d at SFC %d, want %d", i, idx, prevIdx+i)
		}
	}
}

func TestNeighborsUniformInterior(t *testing.T) {
	m := NewUniform(3, 3, 3, 2)
	center := BlockID{Level: 0, X: 1, Y: 1, Z: 1}
	ns := m.NeighborsOf(center)
	if len(ns) != 26 {
		t.Fatalf("interior block has %d neighbors, want 26", len(ns))
	}
	counts := map[NeighborKind]int{}
	for _, n := range ns {
		counts[n.Kind]++
	}
	if counts[Face] != 6 || counts[Edge] != 12 || counts[Vertex] != 8 {
		t.Fatalf("kind counts = %v, want 6/12/8", counts)
	}
}

func TestNeighborsCorner(t *testing.T) {
	m := NewUniform(3, 3, 3, 2)
	corner := BlockID{Level: 0, X: 0, Y: 0, Z: 0}
	ns := m.NeighborsOf(corner)
	if len(ns) != 7 { // 3 faces + 3 edges + 1 vertex
		t.Fatalf("corner block has %d neighbors, want 7", len(ns))
	}
}

func TestNeighborsAcrossLevels(t *testing.T) {
	m := NewUniform(2, 1, 1, 2)
	right := BlockID{Level: 0, X: 1, Y: 0, Z: 0}
	if err := m.Refine(right); err != nil {
		t.Fatal(err)
	}
	left := BlockID{Level: 0, X: 0, Y: 0, Z: 0}
	ns := m.NeighborsOf(left)
	// +x face of left is covered by 4 fine children (quarter-faces); the +x
	// edges by 2 each (4 edges at level 0 → but only +x-involving edges are
	// in-domain here: with ny=nz=1 there are no ±y/±z neighbors at all).
	faces := 0
	for _, n := range ns {
		if n.ID.Level != 1 {
			t.Fatalf("neighbor at level %d, want 1", n.ID.Level)
		}
		if n.Kind == Face {
			faces++
		}
	}
	if faces != 4 {
		t.Fatalf("fine face partners = %d, want 4", faces)
	}
	// Symmetry: each fine child on the -x side must see `left` as a coarse
	// face neighbor.
	for _, c := range right.Children() {
		if c.X&1 != 0 {
			continue
		}
		found := false
		for _, n := range m.NeighborsOf(c) {
			if n.ID == left && n.Kind == Face {
				found = true
			}
		}
		if !found {
			t.Fatalf("child %v does not see coarse face neighbor", c)
		}
	}
}

// Neighbor symmetry property: if a appears in b's unique neighbor list then
// b appears in a's.
func TestNeighborSymmetry(t *testing.T) {
	rng := xrand.New(11)
	m := RandomRefined(2, 2, 2, 3, 60, rng)
	if a, b, ok := m.CheckBalance(); !ok {
		t.Fatalf("random mesh unbalanced: %v vs %v", a, b)
	}
	for _, b := range m.Leaves() {
		for _, n := range m.UniqueNeighbors(b.ID) {
			back := false
			for _, nn := range m.UniqueNeighbors(n.ID) {
				if nn.ID == b.ID {
					back = true
					break
				}
			}
			if !back {
				t.Fatalf("asymmetric adjacency: %v sees %v but not vice versa", b.ID, n.ID)
			}
		}
	}
}

func TestRefineWhereFixpoint(t *testing.T) {
	m := NewUniform(2, 2, 2, 2)
	// Refine everything within a small ball around the origin corner.
	n := m.RefineWhere(func(id BlockID) bool {
		c := id.Center()
		return c[0] < 0.7 && c[1] < 0.7 && c[2] < 0.7
	})
	if n == 0 {
		t.Fatal("RefineWhere refined nothing")
	}
	if _, _, ok := m.CheckBalance(); !ok {
		t.Fatal("RefineWhere broke balance")
	}
	// All leaves inside the ball must be at maxLevel.
	for _, b := range m.Leaves() {
		c := b.ID.Center()
		if c[0] < 0.3 && c[1] < 0.3 && c[2] < 0.3 && b.ID.Level != 2 {
			t.Fatalf("leaf %v inside ball not at maxLevel", b.ID)
		}
	}
}

func TestCoarsenWhereReversesRefinement(t *testing.T) {
	m := NewUniform(2, 2, 2, 2)
	m.RefineOnce(func(id BlockID) bool { return true })
	if m.NumLeaves() != 64 {
		t.Fatalf("leaves after uniform refine = %d, want 64", m.NumLeaves())
	}
	merged := m.CoarsenWhere(func(id BlockID) bool { return true })
	if merged != 8 {
		t.Fatalf("merged %d octets, want 8", merged)
	}
	if m.NumLeaves() != 8 {
		t.Fatalf("leaves after coarsen = %d, want 8", m.NumLeaves())
	}
}

func TestRandomRefinedProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		target := 30 + rng.Intn(100)
		m := RandomRefined(2, 2, 2, 4, target, rng)
		if m.NumLeaves() < target {
			return false
		}
		_, _, ok := m.CheckBalance()
		return ok
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencyBySFC(t *testing.T) {
	m := NewUniform(2, 2, 2, 1)
	adj := m.AdjacencyBySFC()
	if len(adj) != 8 {
		t.Fatalf("adjacency size = %d", len(adj))
	}
	// In a 2x2x2 periodic-free grid every block touches the other 7.
	for i, ns := range adj {
		if len(ns) != 7 {
			t.Fatalf("block %d has %d unique neighbors, want 7", i, len(ns))
		}
	}
}

func TestBoundsAndCenter(t *testing.T) {
	id := BlockID{Level: 1, X: 1, Y: 0, Z: 1}
	lo, hi := id.Bounds()
	if lo != [3]float64{0.5, 0, 0.5} || hi != [3]float64{1, 0.5, 1} {
		t.Fatalf("bounds = %v..%v", lo, hi)
	}
	if c := id.Center(); c != [3]float64{0.75, 0.25, 0.75} {
		t.Fatalf("center = %v", c)
	}
}

func TestKindOf(t *testing.T) {
	if KindOf(1, 0, 0) != Face || KindOf(0, -1, 0) != Face {
		t.Error("face misclassified")
	}
	if KindOf(1, 1, 0) != Edge || KindOf(0, -1, 1) != Edge {
		t.Error("edge misclassified")
	}
	if KindOf(1, -1, 1) != Vertex {
		t.Error("vertex misclassified")
	}
	if Face.String() != "face" || Edge.String() != "edge" || Vertex.String() != "vertex" {
		t.Error("kind String() wrong")
	}
}

func TestKindOfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KindOf(0,0,0) did not panic")
		}
	}()
	KindOf(0, 0, 0)
}

func BenchmarkRefineWhereShell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := NewUniform(4, 4, 4, 2)
		m.RefineWhere(func(id BlockID) bool {
			c := id.Center()
			r := 0.0
			for k := 0; k < 3; k++ {
				d := c[k] - 2
				r += d * d
			}
			return r > 0.8 && r < 1.4
		})
	}
}

func BenchmarkNeighborsOf(b *testing.B) {
	rng := xrand.New(3)
	m := RandomRefined(4, 4, 4, 3, 500, rng)
	leaves := m.Leaves()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.NeighborsOf(leaves[i%len(leaves)].ID)
	}
}
