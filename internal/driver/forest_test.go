package driver

import (
	"testing"

	"amrtools/internal/mesh"
	"amrtools/internal/placement"
)

// TestInheritDeepAncestor is the regression test for the latent global-view
// assumption the distributed audits flushed out: inheritance used to consult
// only the immediate parent, so a block created two or more levels below any
// previously known leaf fell through to the rank-0 fallback instead of
// inheriting its surviving ancestor's rank. The full ancestor walk must
// resolve it.
func TestInheritDeepAncestor(t *testing.T) {
	m := mesh.NewUniform(2, 1, 1, 2)
	rootA := m.Leaves()[0].ID
	rootB := m.Leaves()[1].ID
	dir := directoryFor(m, map[mesh.BlockID]int32{rootA: 3, rootB: 1}, 4)

	// A grandchild of rootA, off the child-0 chain so its normalized key
	// differs from rootA's and an exact-key lookup cannot mask the walk.
	gc := rootA.Children()[5].Children()[3]
	if gc.Level != 2 {
		t.Fatalf("grandchild level %d, want 2", gc.Level)
	}
	if _, ok := dir.lookup(gc); ok {
		t.Fatal("grandchild must not resolve exactly (it never existed)")
	}
	if _, ok := dir.lookup(gc.Parent()); ok {
		t.Fatal("parent must not resolve either — the gap is two levels deep")
	}
	got, ok := dir.inherit(gc)
	if !ok || got != 3 {
		t.Fatalf("deep descendant inherited (%d, %v), want rootA's rank (3, true)", got, ok)
	}
}

// TestDirectoryLevelDisambiguation: a parent and its first child share a
// normalized SFC key; the directory's level column must keep them distinct,
// or a coarsened block would resolve to its first child's record and bypass
// majority inheritance.
func TestDirectoryLevelDisambiguation(t *testing.T) {
	m := mesh.NewUniform(2, 1, 1, 1)
	root := m.Leaves()[0].ID
	if err := m.Refine(root); err != nil {
		t.Fatal(err)
	}
	owner := map[mesh.BlockID]int32{m.Leaves()[len(m.Leaves())-1].ID: 1}
	kids := root.Children()
	owner[kids[0]] = 0
	for _, c := range kids[1:] {
		owner[c] = 2
	}
	dir := directoryFor(m, owner, 4)

	if o, ok := dir.lookup(kids[0]); !ok || o != 0 {
		t.Fatalf("child-0 lookup = (%d, %v), want (0, true)", o, ok)
	}
	if _, ok := dir.lookup(root); ok {
		t.Fatal("parent resolved through its first child's record (level column ignored)")
	}
	if o, ok := dir.inherit(root); !ok || o != 2 {
		t.Fatalf("coarsened root inherited (%d, %v), want majority (2, true)", o, ok)
	}
}

// TestDirectoryHomeRankBalance: directory records spread across home ranks by
// the SFC partition, not concentrated wherever the placement policy put the
// blocks — home load is a metadata-balance property.
func TestDirectoryHomeRankBalance(t *testing.T) {
	m := mesh.NewUniform(4, 4, 4, 0)
	leaves := m.Leaves()
	ids := make([]mesh.BlockID, len(leaves))
	assign := make(placement.Assignment, len(leaves)) // everything on rank 0
	for i, b := range leaves {
		ids[i] = b.ID
	}
	dir := buildDirectory(m.Geometry(), ids, assign, 8)
	for h := 0; h < 8; h++ {
		if got := len(dir.shards[h].keys); got != 8 {
			t.Fatalf("home rank %d holds %d records, want 8 (64 leaves / 8 ranks)", h, got)
		}
	}
	if n := countInstalls(dir); n != 56 {
		// All blocks owned by rank 0, so every record outside rank 0's own
		// shard is a remote install.
		t.Fatalf("countInstalls = %d, want 56", n)
	}
}

// TestDirectorySingleBlockMesh: the degenerate single-leaf forest must
// still route — all key space resolves to the one record's home, lookups
// hit it, and descendants of the sole block inherit its rank.
func TestDirectorySingleBlockMesh(t *testing.T) {
	m := mesh.NewUniform(1, 1, 1, 2)
	root := m.Leaves()[0].ID
	dir := directoryFor(m, map[mesh.BlockID]int32{root: 5}, 8)
	if o, ok := dir.lookup(root); !ok || o != 5 {
		t.Fatalf("lookup = (%d, %v), want (5, true)", o, ok)
	}
	deep := root.Children()[7].Children()[1]
	if o, ok := dir.inherit(deep); !ok || o != 5 {
		t.Fatalf("descendant inherited (%d, %v), want (5, true)", o, ok)
	}
}

// TestDirectoryZeroBlockRanks: with more ranks than leaves, most home
// shards are empty; every leaf must still resolve and the empty shards must
// stay truly empty (their footprint is what the scaling claim counts).
func TestDirectoryZeroBlockRanks(t *testing.T) {
	m := mesh.NewUniform(2, 1, 1, 1)
	a, b := m.Leaves()[0].ID, m.Leaves()[1].ID
	dir := directoryFor(m, map[mesh.BlockID]int32{a: 1, b: 0}, 16)
	if o, ok := dir.lookup(a); !ok || o != 1 {
		t.Fatalf("leaf a = (%d, %v), want (1, true)", o, ok)
	}
	if o, ok := dir.lookup(b); !ok || o != 0 {
		t.Fatalf("leaf b = (%d, %v), want (0, true)", o, ok)
	}
	nonempty := 0
	for h := range dir.shards {
		if n := len(dir.shards[h].keys); n > 0 {
			nonempty++
			if h >= 2 {
				t.Fatalf("record landed on home rank %d; 2 leaves fill only the first homes", h)
			}
		}
	}
	if nonempty != 2 {
		t.Fatalf("%d non-empty home shards, want 2", nonempty)
	}
}

// TestInheritMaxDepthKeys: a max-level block absent from the directory has
// no children to take a majority from (they would exceed the mesh depth);
// inheritance must come from the ancestor walk alone, and an id with no
// recorded ancestor reports ok=false rather than a silent rank-0 claim.
func TestInheritMaxDepthKeys(t *testing.T) {
	m := mesh.NewUniform(2, 1, 1, 2) // maxLevel 2
	rootA := m.Leaves()[0].ID
	dir := directoryFor(m, map[mesh.BlockID]int32{rootA: 3}, 4)
	deepest := rootA.Children()[2].Children()[6]
	if deepest.Level != 2 {
		t.Fatalf("deepest level %d, want the mesh max 2", deepest.Level)
	}
	if o, ok := dir.inherit(deepest); !ok || o != 3 {
		t.Fatalf("max-depth block inherited (%d, %v), want (3, true)", o, ok)
	}
	// Same depth under the unrecorded root: nothing to inherit from.
	rootB := m.Leaves()[len(m.Leaves())-1].ID
	orphan := rootB.Children()[0].Children()[0]
	if o, ok := dir.inherit(orphan); ok {
		t.Fatalf("orphan at max depth inherited (%d, true), want ok=false", o)
	}
}

// TestDirectoryRoutingShardCountIndependent: the owner a lookup or an
// inheritance resolves is a function of the records, not of how many home
// shards the key space is split across — the property that lets the driver
// rebuild the directory for any rank count without perturbing results.
func TestDirectoryRoutingShardCountIndependent(t *testing.T) {
	m := mesh.NewUniform(2, 2, 1, 1)
	owners := map[mesh.BlockID]int32{}
	for i, b := range m.Leaves() {
		owners[b.ID] = int32(i % 3)
	}
	base := directoryFor(m, owners, 1)
	for _, nranks := range []int{2, 3, 8, 64} {
		dir := directoryFor(m, owners, nranks)
		for id, want := range owners {
			if o, ok := dir.lookup(id); !ok || o != want {
				t.Fatalf("nranks=%d: lookup(%v) = (%d, %v), want (%d, true)", nranks, id, o, ok, want)
			}
			child := id.Children()[3]
			bo, bok := base.inherit(child)
			if o, ok := dir.inherit(child); o != bo || ok != bok {
				t.Fatalf("nranks=%d: inherit(%v) = (%d, %v), base says (%d, %v)",
					nranks, child, o, ok, bo, bok)
			}
		}
	}
}
