package driver

import (
	"testing"

	"amrtools/internal/cost"
	"amrtools/internal/mesh"
	"amrtools/internal/placement"
)

// epochState returns a run state holding the mesh a Sedov run over
// rootDims reaches by its last redistribution (quick Fig 6 cadence: 25
// steps, refinement re-evaluated every 5), with one rank per root block, and
// the CPLX50 assignment of that mesh under unit costs.
func epochState(tb testing.TB, rootDims [3]int, maxLevel int) (*runState, placement.Assignment) {
	tb.Helper()
	const steps = 25
	cfg := DefaultConfig(rootDims, maxLevel, steps, placement.CPLX{X: 50}, 1)
	if err := validate(&cfg); err != nil {
		tb.Fatal(err)
	}
	nranks := rootDims[0] * rootDims[1] * rootDims[2]
	m := mesh.NewUniform(rootDims[0], rootDims[1], rootDims[2], maxLevel)
	for step := cfg.LBInterval; step < steps; step += cfg.LBInterval {
		m.RefineOnce(func(id mesh.BlockID) bool { return cfg.Problem.WantRefine(id, step) })
		m.CoarsenWhere(func(id mesh.BlockID) bool { return cfg.Problem.WantCoarsen(id, step) })
	}
	st := &runState{
		cfg:       cfg,
		m:         m,
		rec:       cost.NewRecorder(cfg.CostAlpha),
		rebCharge: make([]float64, nranks),
		res:       &Result{},
	}
	return st, cfg.Policy.Assign(unitCosts(m.NumLeaves()), nranks)
}

// buildEpochAllocBudget bounds the allocations of one epoch rebuild on the
// refined quick Fig 6 mesh (632 leaves, 128 ranks). Measured at 570
// (go1.24): four per rank — each view's halo and sends, each plan's sends
// and recvs, all sized exactly — and a few dozen flat per-epoch arrays. The
// headroom is less than one allocation per rank, so a per-rank map or an
// unsized per-rank append coming back fails it.
const buildEpochAllocBudget = 640

// TestBuildEpochAllocBudget: one rebuild of views, plans and directory
// allocates O(ranks) times, not O(blocks).
func TestBuildEpochAllocBudget(t *testing.T) {
	st, assign := epochState(t, [3]int{4, 4, 8}, 2)
	costs := unitCosts(len(assign))
	st.buildEpochWith(assign, costs, 128, true)
	allocs := testing.AllocsPerRun(5, func() {
		st.buildEpochWith(assign, costs, 128, false)
	})
	t.Logf("%d leaves, 128 ranks: %.0f allocations per rebuild", len(assign), allocs)
	if allocs > buildEpochAllocBudget {
		t.Fatalf("one epoch rebuild allocates %.0f times, budget %d", allocs, buildEpochAllocBudget)
	}
}

// TestBuildRankPlanEmptyRank: a rank that owns no block gets an empty view
// and an empty plan beside ranks whose plans pair up.
func TestBuildRankPlanEmptyRank(t *testing.T) {
	m := mesh.NewUniform(2, 2, 1, 0)
	views := m.BuildRankViews([]int{0, 1, 0, 1}, 3)
	v := views[2]
	if len(v.Owned) != 0 || len(v.Halo) != 0 || v.Bytes() != 0 {
		t.Fatalf("empty rank view: %d owned, %d halo, %d bytes", len(v.Owned), len(v.Halo), v.Bytes())
	}
	p := buildRankPlan(v, [3]int{3, 2, 1}, 1)
	if len(p.sends) != 0 || len(p.recvs) != 0 || p.intra != 0 || p.planBytes() != 0 || p.view != v {
		t.Fatalf("empty rank plan: %d sends, %d recvs, %d intra", len(p.sends), len(p.recvs), p.intra)
	}
	if p := buildRankPlan(views[0], [3]int{3, 2, 1}, 1); len(p.sends) == 0 || len(p.recvs) != len(p.sends) {
		t.Fatalf("rank 0 plan: %d sends, %d recvs", len(p.sends), len(p.recvs))
	}
}

// BenchmarkBuildEpoch times one epoch rebuild (ownership deltas, rank
// views, plans, directory) on the refined quick Fig 6 mesh at 128 ranks and
// on the scale campaign's 4096-rank mesh (one root block per rank, max
// level 1).
func BenchmarkBuildEpoch(b *testing.B) {
	for _, c := range []struct {
		name     string
		dims     [3]int
		maxLevel int
	}{
		{"128ranks", [3]int{4, 4, 8}, 2},
		{"4096ranks", [3]int{16, 16, 16}, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			st, assign := epochState(b, c.dims, c.maxLevel)
			nranks := c.dims[0] * c.dims[1] * c.dims[2]
			costs := unitCosts(len(assign))
			st.buildEpochWith(assign, costs, nranks, true)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				st.buildEpochWith(assign, costs, nranks, false)
			}
			b.ReportMetric(float64(len(assign)), "leaves")
		})
	}
}
