package experiments

import (
	"fmt"
	"sort"

	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/mesh"
	"amrtools/internal/placement"
	"amrtools/internal/sfc"
	"amrtools/internal/telemetry"
	"amrtools/internal/xrand"
)

// LBIntervalSweep explores the placement-trigger frequency (the
// Meta-Balancer question of §VIII related work): refinement cadence is held
// fixed (every 5 steps, so every variant does identical physics work), and
// placement recomputation runs on every k-th mesh change; in between, new
// blocks inherit their parent's rank. Too rarely and stale placements
// straggle; the reference (never re-place) shows the full cost of deferral.
//
// Columns: placement_every, lb_steps, total_s, sync_s, rebalance_s,
// improvement_pct (vs the never-re-place run).
func LBIntervalSweep(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.IntCol("placement_every"), telemetry.IntCol("lb_steps"),
		telemetry.FloatCol("total_s"), telemetry.FloatCol("sync_s"),
		telemetry.FloatCol("rebalance_s"), telemetry.FloatCol("improvement_pct"),
	)
	sc := QuickScale
	if !opts.Quick {
		sc = TableIScales[0]
	}
	steps := opts.steps()
	const never = 1 << 20
	// The four cadence variants are independent runs; the never-re-place
	// reference is spec 0, so the in-order reduce sees it first.
	intervals := []int{never, 4, 2, 1}
	var specs []harness.Spec[*driver.Result]
	for _, every := range intervals {
		cfg := sedovConfig(sc, placement.CPLX{X: 50}, steps, opts.Seed)
		cfg.PlacementEvery = every
		id := fmt.Sprintf("every-%d", every)
		if every == never {
			id = "never"
		}
		specs = append(specs, opts.sedovSpec(id, cfg))
	}
	var ref float64
	for i, res := range runCampaign(opts, "lbinterval", specs) {
		every := intervals[i]
		if every == never {
			ref = res.Phases.Total()
		}
		imp := 0.0
		if ref > 0 {
			imp = 100 * (ref - res.Phases.Total()) / ref
		}
		label := every
		if every == never {
			label = 0 // rendered as "never re-place"
		}
		out.Append(label, res.LBSteps, res.Phases.Total(),
			res.Phases.Sync, res.Phases.Rebalance, imp)
	}
	return out
}

// HilbertOrderStudy compares block orderings for contiguous placement: the
// Z-order (Morton) curve AMR codes get for free from octree DFS versus the
// Hilbert curve (an extension the paper leaves on the table). For each
// ordering it reports the locality of the contiguous baseline assignment at
// rank and node granularity. Hilbert's strictly-adjacent traversal usually
// keeps more neighbor pairs on the same rank.
//
// Columns: ordering, blocks, rank_locality, node_locality.
func HilbertOrderStudy(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.StrCol("ordering"), telemetry.IntCol("blocks"),
		telemetry.FloatCol("rank_locality"), telemetry.FloatCol("node_locality"),
	)
	ranks := 128
	rootDims := [3]int{4, 4, 8}
	if !opts.Quick {
		ranks = 512
		rootDims = [3]int{8, 8, 8}
	}
	rng := xrand.New(opts.Seed + 21)
	m := mesh.RandomRefined(rootDims[0], rootDims[1], rootDims[2], 3, ranks*2, rng)
	leaves := m.Leaves()
	n := len(leaves)
	adjMorton := m.AdjacencyBySFC() // indexed by Morton/SFC position

	// Hilbert permutation: position of each Morton-ordered leaf in the
	// Hilbert traversal. Bits must cover rootDim << maxLevel.
	maxDim := rootDims[0]
	for _, d := range rootDims[1:] {
		if d > maxDim {
			maxDim = d
		}
	}
	bits := 0
	for v := 1; v < maxDim<<uint(m.MaxLevel()); v <<= 1 {
		bits++
	}
	type kv struct {
		key    uint64
		morton int
	}
	hs := make([]kv, n)
	for i, b := range leaves {
		id := b.ID
		shift := uint(m.MaxLevel() - id.Level)
		hs[i] = kv{
			key:    sfc.HilbertEncode3D(id.X<<shift, id.Y<<shift, id.Z<<shift, bits),
			morton: i,
		}
	}
	sort.Slice(hs, func(a, b int) bool { return hs[a].key < hs[b].key })
	hilbertPos := make([]int, n) // morton index → hilbert position
	for pos, e := range hs {
		hilbertPos[e.morton] = pos
	}

	base := placement.Baseline{}
	costs := unitCosts(n)

	// The mesh and Hilbert permutation above share one RNG stream and are
	// built once; the two ordering evaluations are independent and fan out.
	type locality struct{ rank, node float64 }
	evalSpec := func(id string, assign func() placement.Assignment) harness.Spec[locality] {
		return harness.Spec[locality]{
			ID: id,
			Run: func(m *harness.Meter) (locality, error) {
				a := assign()
				return locality{
					rank: placement.LocalityFraction(adjMorton, a),
					node: placement.NodeLocalityFraction(adjMorton, a, 16),
				}, nil
			},
		}
	}
	specs := []harness.Spec[locality]{
		// Morton ordering: assignment indexed directly.
		evalSpec("morton", func() placement.Assignment {
			return base.Assign(costs, ranks)
		}),
		// Hilbert ordering: contiguous ranges along the Hilbert traversal,
		// mapped back to Morton indexing for the locality metrics.
		evalSpec("hilbert", func() placement.Assignment {
			aHilbertByPos := base.Assign(costs, ranks)
			aHilbert := make(placement.Assignment, n)
			for mortonIdx, pos := range hilbertPos {
				aHilbert[mortonIdx] = aHilbertByPos[pos]
			}
			return aHilbert
		}),
	}
	names := []string{"morton", "hilbert"}
	for i, loc := range harness.MustValues(harness.Run(opts.Exec, "hilbert", specs)) {
		out.Append(names[i], n, loc.rank, loc.node)
	}
	return out
}
