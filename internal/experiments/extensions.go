package experiments

import (
	"fmt"
	"sort"

	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/mesh"
	"amrtools/internal/placement"
	"amrtools/internal/sfc"
	"amrtools/internal/stats"
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
func LBIntervalSweep(opts Options) (*telemetry.Table, error) {
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
	results, err := runCampaign(opts, "lbinterval", specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
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
	return out, nil
}

// HilbertOrderStudy compares block orderings for contiguous placement: the
// Z-order (Morton) curve AMR codes get for free from octree DFS versus the
// Hilbert curve (an extension the paper leaves on the table). For each
// ordering it reports the locality of the contiguous baseline assignment at
// rank and node granularity. Hilbert's strictly-adjacent traversal usually
// keeps more neighbor pairs on the same rank. The study is one spec: the
// mesh and the Hilbert permutation are most of its work, so the harness
// times and bounds all of it.
//
// Columns: ordering, blocks, rank_locality, node_locality.
func HilbertOrderStudy(opts Options) (*telemetry.Table, error) {
	ranks := 128
	rootDims := [3]int{4, 4, 8}
	if !opts.Quick {
		ranks = 512
		rootDims = [3]int{8, 8, 8}
	}
	tables, err := harness.Values(harness.Run(opts.Exec, "hilbert", []harness.Spec[*telemetry.Table]{{
		ID: fmt.Sprintf("%dranks", ranks),
		Run: func(*harness.Meter) (*telemetry.Table, error) {
			return hilbertLocality(ranks, rootDims, opts.Seed), nil
		},
	}}))
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// hilbertLocality builds the random mesh of HilbertOrderStudy and tabulates
// the locality of the contiguous baseline assignment along each ordering.
func hilbertLocality(ranks int, rootDims [3]int, seed uint64) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.StrCol("ordering"), telemetry.IntCol("blocks"),
		telemetry.FloatCol("rank_locality"), telemetry.FloatCol("node_locality"),
	)
	rng := xrand.New(seed + 21)
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

	// Morton ordering: the contiguous assignment indexed directly. Hilbert
	// ordering: the same contiguous ranges laid along the Hilbert traversal,
	// mapped back to Morton indexing for the locality metrics.
	morton := placement.Baseline{}.Assign(unitCosts(n), ranks)
	hilbert := make(placement.Assignment, n)
	for pos, e := range hs {
		hilbert[e.morton] = morton[pos]
	}
	for _, o := range []struct {
		name string
		a    placement.Assignment
	}{{"morton", morton}, {"hilbert", hilbert}} {
		out.Append(o.name, n, placement.LocalityFraction(adjMorton, o.a),
			placement.NodeLocalityFraction(adjMorton, o.a, 16))
	}
	return out
}

// NeighborhoodCollectives evaluates the §VIII related-work alternative the
// paper's codes do not use: replacing per-boundary-element point-to-point
// messages with rank-pair aggregation (the effect of MPI neighborhood
// collectives — one combined message per communicating rank pair per
// round). Aggregation amortizes per-message fabric overheads at the price
// of coupling every boundary element between a rank pair to the slowest
// byte of the bundle. Both modes place the same meshes under CPL50 on unit
// costs.
//
// Columns: ranks, mode, msgs_per_round, mean_round_ms, p99_round_ms.
func NeighborhoodCollectives(opts Options) (*telemetry.Table, error) {
	out := telemetry.NewTable(
		telemetry.IntCol("ranks"), telemetry.StrCol("mode"),
		telemetry.IntCol("msgs_per_round"), telemetry.FloatCol("mean_round_ms"),
		telemetry.FloatCol("p99_round_ms"),
	)
	sc := TableIScales[0]
	rounds, meshes := 15, 3
	if opts.Quick {
		sc = QuickScale
		rounds, meshes = 8, 2
	}
	modes := []string{"p2p", "aggregated"}
	cells := make([]roundCell, len(modes))
	for i, mode := range modes {
		cells[i] = roundCell{
			id: fmt.Sprintf("%dranks-%s", sc.Ranks, mode), sc: sc,
			pol: placement.CPLX{X: 50}, seed: opts.Seed + uint64(sc.Ranks) + 77,
			unitCosts: true, aggregate: mode == "aggregated",
		}
	}
	runs, err := roundCampaign(opts.Exec, "neighborhood", cells, meshes, rounds)
	if err != nil {
		return nil, err
	}
	for i, mode := range modes {
		var lats []float64
		msgs := 0
		for _, run := range runs[i] {
			lats = append(lats, run.lats...)
			msgs += run.msgs
		}
		out.Append(sc.Ranks, mode, msgs/meshes,
			stats.Mean(lats)*1e3, stats.Percentile(lats, 99)*1e3)
	}
	return out, nil
}
