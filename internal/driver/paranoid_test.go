package driver

import (
	"math"
	"os"
	"testing"

	"amrtools/internal/check"
	"amrtools/internal/cost"
	"amrtools/internal/mesh"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
)

// TestMain forces paranoid mode on for every run this package performs, so
// the standard driver suite doubles as a violation-free audit pass.
func TestMain(m *testing.M) {
	check.Force(true)
	os.Exit(m.Run())
}

// auditState builds a runState with a placed epoch over the 2×2×2 uniform
// mesh, one rank per root (two 4-rank nodes), for epoch-audit and migration
// accounting tests.
func auditState(t *testing.T) *runState {
	t.Helper()
	cfg := DefaultConfig([3]int{2, 2, 2}, 0, 5, placement.Baseline{}, 1)
	cfg.Net = simnet.Tuned(2, 4, 1)
	if err := validate(&cfg); err != nil {
		t.Fatal(err)
	}
	st := &runState{
		cfg:       cfg,
		paranoid:  true,
		m:         mesh.NewUniform(2, 2, 2, 0),
		rec:       cost.NewRecorder(cfg.CostAlpha),
		rebCharge: make([]float64, 8),
		res:       &Result{},
	}
	ident := make(placement.Assignment, 8)
	for i := range ident {
		ident[i] = int32(i)
	}
	st.buildEpochWith(ident, unitCosts(8), 8, true)
	return st
}

// directoryFor builds an ownership directory holding records for exactly the
// current leaves present in owner (in SFC order), standing in for a previous
// epoch's directory in inheritance tests. Leaves absent from owner get no
// record — the "unknown previous owner" case.
func directoryFor(m *mesh.Mesh, owner map[mesh.BlockID]int32, nranks int) *ownerDirectory {
	var ids []mesh.BlockID
	var assign placement.Assignment
	for _, b := range m.Leaves() {
		if r, ok := owner[b.ID]; ok {
			ids = append(ids, b.ID)
			assign = append(assign, r)
		}
	}
	return buildDirectory(m.Geometry(), ids, assign, nranks)
}

// --- satellite regressions: coarsening inheritance & migration pricing ---

// refineFirstRoot refines the first root of a 2×1×1 mesh and returns the
// mesh, the refined root, and the remaining level-0 root.
func refineFirstRoot(t *testing.T) (*mesh.Mesh, mesh.BlockID, mesh.BlockID) {
	t.Helper()
	m := mesh.NewUniform(2, 1, 1, 1)
	root := m.Leaves()[0].ID
	other := m.Leaves()[1].ID
	if err := m.Refine(root); err != nil {
		t.Fatal(err)
	}
	return m, root, other
}

func TestInheritAssignmentCoarsenedMajority(t *testing.T) {
	// A coarsened block whose first child lived on a minority rank must
	// inherit the majority owner, not the first child's.
	m, root, other := refineFirstRoot(t)
	owner := map[mesh.BlockID]int32{other: 1}
	kids := root.Children()
	owner[kids[0]] = 0 // minority
	for _, c := range kids[1:] {
		owner[c] = 3 // majority
	}
	st := &runState{m: m, dir: directoryFor(m, owner, 4)}
	if err := m.Coarsen(root); err != nil {
		t.Fatal(err)
	}
	assign := st.inheritAssignment(m.Leaves(), 4)
	for i, b := range m.Leaves() {
		want := int32(1)
		if b.ID == root {
			want = 3
		}
		if assign[i] != want {
			t.Errorf("leaf %v inherited rank %d, want %d", b.ID, assign[i], want)
		}
	}
}

func TestInheritAssignmentCoarsenedFirstChildUnknown(t *testing.T) {
	// When the first child's owner is unknown the majority of the remaining
	// children must still win — not the rank-0 fallback.
	m, root, other := refineFirstRoot(t)
	owner := map[mesh.BlockID]int32{other: 1}
	kids := root.Children()
	for _, c := range kids[1:] {
		owner[c] = 2
	}
	st := &runState{m: m, dir: directoryFor(m, owner, 4)}
	if err := m.Coarsen(root); err != nil {
		t.Fatal(err)
	}
	assign := st.inheritAssignment(m.Leaves(), 4)
	for i, b := range m.Leaves() {
		if b.ID == root && assign[i] != 2 {
			t.Fatalf("coarsened root inherited rank %d, want majority owner 2", assign[i])
		}
	}
}

func TestMigrationCoarsenedOntoMajorityNotCounted(t *testing.T) {
	// Placing a coarsened block on the rank that held most of its children
	// moves (almost) nothing, so it must not count as a migration.
	m, root, other := refineFirstRoot(t)
	cfg := DefaultConfig([3]int{2, 1, 1}, 1, 5, placement.Baseline{}, 1)
	cfg.Net = simnet.Tuned(1, 2, 1)
	if err := validate(&cfg); err != nil {
		t.Fatal(err)
	}
	st := &runState{
		cfg:       cfg,
		m:         m,
		rec:       cost.NewRecorder(cfg.CostAlpha),
		rebCharge: make([]float64, 2),
		res:       &Result{},
	}
	kids := root.Children()
	want := map[mesh.BlockID]int32{kids[0]: 0, other: 0}
	for _, c := range kids[1:] {
		want[c] = 1 // rank 1 holds 7 of 8 children
	}
	leaves := m.Leaves()
	assign := make(placement.Assignment, len(leaves))
	for i, b := range leaves {
		assign[i] = want[b.ID]
	}
	st.buildEpochWith(assign, unitCosts(len(leaves)), 2, true)

	if err := m.Coarsen(root); err != nil {
		t.Fatal(err)
	}
	leaves = m.Leaves()
	assign = make(placement.Assignment, len(leaves))
	for i, b := range leaves {
		if b.ID == root {
			assign[i] = 1 // the majority owner
		}
	}
	st.buildEpochWith(assign, unitCosts(len(leaves)), 2, false)
	if st.res.Migrations != 0 {
		t.Fatalf("coarsened block placed on its majority owner counted %d migrations, want 0",
			st.res.Migrations)
	}
}

func TestMigrationChargePricesIntraNodeAtLocalBandwidth(t *testing.T) {
	st := auditState(t) // ranks 0-3 on node 0, 4-7 on node 1
	moved := append(placement.Assignment(nil), st.ep.assign...)
	moved[0] = 1 // rank 0 -> rank 1: intra-node, rides shared memory
	moved[7] = 3 // rank 7 -> rank 3: inter-node, pays the fabric
	st.buildEpochWith(moved, unitCosts(8), 8, false)

	if st.res.Migrations != 2 {
		t.Fatalf("migrations = %d, want 2", st.res.Migrations)
	}
	cfg := st.cfg
	tLocal := blockBytes / cfg.Net.LocalBandwidth
	tRemote := blockBytes / cfg.Net.RemoteBandwidth
	if tLocal == tRemote {
		t.Fatal("test needs distinct local/remote bandwidths")
	}
	want := map[int]float64{
		0: placementCharge + tLocal,  // source of the intra-node move
		1: placementCharge + tLocal,  // destination of the intra-node move
		7: placementCharge + tRemote, // source of the inter-node move
		3: placementCharge + tRemote, // destination of the inter-node move
		2: placementCharge,           // untouched rank
	}
	for r, w := range want {
		if math.Abs(st.rebCharge[r]-w) > 1e-12*w {
			t.Errorf("rebCharge[%d] = %g, want %g", r, st.rebCharge[r], w)
		}
	}
}

// --- violation injection: driver/mesh epoch audits ---

// roguePolicy returns an out-of-range assignment from its badAt-th call on.
type roguePolicy struct{ calls, badAt int }

func (p *roguePolicy) Name() string { return "rogue" }

func (p *roguePolicy) Assign(costs []float64, nranks int) placement.Assignment {
	p.calls++
	a := make(placement.Assignment, len(costs))
	if p.calls >= p.badAt {
		for i := range a {
			a[i] = int32(nranks) // one past the last valid rank
		}
	}
	return a
}

func TestParanoidCatchesInvalidInitialAssignment(t *testing.T) {
	cfg := smallConfig(&roguePolicy{badAt: 1}, 5, 1)
	v, ok := check.Catch(func() { _, _ = Run(cfg) })
	if !ok {
		t.Fatal("out-of-range initial assignment raised no violation")
	}
	if v.Layer != "placement" || v.Invariant != "assignment-valid" {
		t.Fatalf("violation = %v, want placement/assignment-valid", v)
	}
}

func TestParanoidCatchesInvalidAssignmentMidRun(t *testing.T) {
	// The second placement happens inside rank 0's program at a
	// redistribution barrier; the violation must propagate out of the
	// engine to Run's caller.
	cfg := smallConfig(&roguePolicy{badAt: 2}, 25, 2)
	v, ok := check.Catch(func() { _, _ = Run(cfg) })
	if !ok {
		t.Fatal("out-of-range mid-run assignment raised no violation")
	}
	if v.Layer != "placement" || v.Invariant != "assignment-valid" {
		t.Fatalf("violation = %v, want placement/assignment-valid", v)
	}
}

func TestAuditEpochCatchesDroppedRecv(t *testing.T) {
	st := auditState(t)
	ep := st.ep
	for r := range ep.plans {
		if len(ep.plans[r].recvs) > 0 {
			ep.plans[r].recvs = ep.plans[r].recvs[1:] // lose one planned recv
			break
		}
	}
	v, ok := check.Catch(func() { st.auditEpoch(ep, ep.costs, 8, nil) })
	if !ok {
		t.Fatal("dropped recv raised no violation")
	}
	if v.Layer != "driver" || v.Invariant != "plan-symmetry" {
		t.Fatalf("violation = %v, want driver/plan-symmetry", v)
	}
}

func TestAuditEpochCatchesUnownedLeaf(t *testing.T) {
	st := auditState(t)
	ep := st.ep
	for r := range ep.plans {
		if len(ep.plans[r].view.Owned) > 0 {
			ep.plans[r].view.Owned = ep.plans[r].view.Owned[1:] // orphan one leaf
			break
		}
	}
	v, ok := check.Catch(func() { st.auditEpoch(ep, ep.costs, 8, nil) })
	if !ok {
		t.Fatal("unowned leaf raised no violation")
	}
	if v.Layer != "driver" || v.Invariant != "owner-cover" {
		t.Fatalf("violation = %v, want driver/owner-cover", v)
	}
}

func TestAuditEpochCatchesCostLengthMismatch(t *testing.T) {
	st := auditState(t)
	v, ok := check.Catch(func() { st.auditEpoch(st.ep, unitCosts(3), 8, nil) })
	if !ok {
		t.Fatal("short cost vector raised no violation")
	}
	if v.Layer != "driver" || v.Invariant != "cost-length" {
		t.Fatalf("violation = %v, want driver/cost-length", v)
	}
}

// --- violation injection: distributed-forest audits ---

func TestAuditEpochCatchesDirectoryOwnerDisagreement(t *testing.T) {
	st := auditState(t)
	// Flip one authoritative directory record to the wrong rank: the two-hop
	// lookup now disagrees with the substrate assignment.
	for h := range st.dir.shards {
		if len(st.dir.shards[h].owners) > 0 {
			st.dir.shards[h].owners[0] = (st.dir.shards[h].owners[0] + 1) % 8
			break
		}
	}
	v, ok := check.Catch(func() { st.auditEpoch(st.ep, st.ep.costs, 8, nil) })
	if !ok {
		t.Fatal("corrupted directory record raised no violation")
	}
	if v.Layer != "driver" || v.Invariant != "sfc-owner-agreement" {
		t.Fatalf("violation = %v, want driver/sfc-owner-agreement", v)
	}
}

func TestAuditEpochCatchesStaleHaloOwner(t *testing.T) {
	st := auditState(t)
	ep := st.ep
	// Point one halo entry's cached owner at the viewing rank itself — a
	// stale view that would route that halo block's messages wrongly.
	for r := range ep.plans {
		if v := ep.plans[r].view; len(v.Halo) > 0 {
			v.Halo[0].Owner = int32(r)
			break
		}
	}
	v, ok := check.Catch(func() { st.auditEpoch(ep, ep.costs, 8, nil) })
	if !ok {
		t.Fatal("stale halo owner raised no violation")
	}
	if v.Layer != "driver" || v.Invariant != "halo-consistency" {
		t.Fatalf("violation = %v, want driver/halo-consistency", v)
	}
}

func TestAuditEpochCatchesDeltaLedgerAsymmetry(t *testing.T) {
	st := auditState(t)
	ep := st.ep
	// Graft one of rank 0's owned blocks into rank 1's view: rank 1 now
	// believes it received a handoff the substrate never sent.
	moved := ep.plans[0].view.Owned[0]
	ep.plans[1].view.Owned = append(ep.plans[1].view.Owned, moved)
	ep.plans[0].view.Owned = ep.plans[0].view.Owned[1:]
	v, ok := check.Catch(func() { st.auditEpoch(ep, ep.costs, 8, st.dir) })
	if !ok {
		t.Fatal("asymmetric handoff ledger raised no violation")
	}
	if v.Layer != "driver" || v.Invariant != "delta-symmetry" {
		t.Fatalf("violation = %v, want driver/delta-symmetry", v)
	}
}

func TestAuditEpochCatchesPlanDivergence(t *testing.T) {
	st := auditState(t)
	ep := st.ep
	// One phantom intra-rank copy: invisible to symmetry (no message), but
	// the global-reference replay must notice the plan diverged.
	ep.plans[0].intra++
	v, ok := check.Catch(func() { st.auditEpoch(ep, ep.costs, 8, nil) })
	if !ok {
		t.Fatal("diverged plan raised no violation")
	}
	if v.Layer != "driver" || v.Invariant != "plan-equivalence" {
		t.Fatalf("violation = %v, want driver/plan-equivalence", v)
	}
}
