package experiments

import (
	"fmt"

	"amrtools/internal/harness"
	"amrtools/internal/mesh"
	"amrtools/internal/placement"
	"amrtools/internal/stats"
	"amrtools/internal/telemetry"
	"amrtools/internal/xrand"
)

// NeighborhoodCollectives evaluates the §VIII related-work alternative the
// paper's codes do not use: replacing per-boundary-element point-to-point
// messages with rank-pair aggregation (the effect of MPI neighborhood
// collectives — one combined message per communicating rank pair per
// round). Aggregation amortizes per-message fabric overheads at the price
// of coupling every boundary element between a rank pair to the slowest
// byte of the bundle.
//
// Columns: ranks, mode, msgs_per_round, mean_round_ms, p99_round_ms.
func NeighborhoodCollectives(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.IntCol("ranks"), telemetry.StrCol("mode"),
		telemetry.IntCol("msgs_per_round"), telemetry.FloatCol("mean_round_ms"),
		telemetry.FloatCol("p99_round_ms"),
	)
	type scale struct {
		ranks    int
		rootDims [3]int
	}
	scales := []scale{{512, [3]int{8, 8, 8}}}
	rounds, meshes := 15, 3
	if opts.Quick {
		scales = []scale{{128, [3]int{4, 4, 8}}}
		rounds, meshes = 8, 2
	}
	// Fan out every (scale, mode, mesh) round as its own spec. Each cell's
	// per-mesh RNGs are split from the shared stream at plan-build time, so
	// mesh m sees the same stream it did under the sequential loop.
	type cellKey struct {
		ranks     int
		aggregate bool
	}
	var cells []cellKey
	var specs []harness.Spec[roundOut]
	for _, sc := range scales {
		for _, aggregate := range []bool{false, true} {
			cells = append(cells, cellKey{sc.ranks, aggregate})
			rng := xrand.New(opts.Seed + uint64(sc.ranks) + 77)
			for m := 0; m < meshes; m++ {
				mode := "p2p"
				if aggregate {
					mode = "aggregated"
				}
				specs = append(specs, neighborhoodSpec(
					fmt.Sprintf("%dranks-%s-mesh%d", sc.ranks, mode, m),
					sc.ranks, sc.rootDims, aggregate, rounds, rng.Split()))
			}
		}
	}
	runs := harness.MustValues(harness.Run(opts.Exec, "neighborhood", specs))
	for _, cell := range cells {
		var lats []float64
		msgs := 0
		for m := 0; m < meshes; m++ {
			lats = append(lats, runs[0].lats...)
			msgs += runs[0].msgs
			runs = runs[1:]
		}
		mode := "p2p"
		if cell.aggregate {
			mode = "aggregated"
		}
		out.Append(cell.ranks, mode, msgs/meshes,
			stats.Mean(lats)*1e3, stats.Percentile(lats, 99)*1e3)
	}
	return out
}

// roundOut is one neighborhood mesh outcome: round latencies and the
// messages one round exchanges.
type roundOut struct {
	lats []float64
	msgs int
}

// neighborhoodSpec wraps one neighborhood mesh as a harness spec.
func neighborhoodSpec(id string, ranks int, rootDims [3]int, aggregate bool, rounds int, rng *xrand.RNG) harness.Spec[roundOut] {
	return harness.Spec[roundOut]{
		ID: id,
		Run: func(mt *harness.Meter) (roundOut, error) {
			plan := neighborhoodPlan(ranks, rootDims, aggregate, rng)
			res, err := runRounds(mt.Aborted, rounds, rng, plan)
			mt.AddEvents(res.events)
			return roundOut{lats: res.lats, msgs: plan.ntags}, err
		},
	}
}

// neighborhoodPlan builds one random AMR mesh under CPL50 and returns its
// boundary exchanges as a round plan: raw P2P (one message per boundary
// element) or aggregated (one combined message per communicating rank pair).
func neighborhoodPlan(ranks int, rootDims [3]int, aggregate bool, rng *xrand.RNG) *roundPlan {
	m := mesh.RandomRefined(rootDims[0], rootDims[1], rootDims[2], 3, ranks+ranks/2, rng)
	leaves := m.Leaves()
	n := len(leaves)
	assign := placement.CPLX{X: 50}.Assign(unitCosts(n), ranks)

	index := make(map[mesh.BlockID]int, n)
	for i, b := range leaves {
		index[b.ID] = i
	}
	plan := newRoundPlan(ranks)
	bundle := map[[2]int]int{} // aggregated: bytes per communicating rank pair
	for i, b := range leaves {
		for _, nb := range m.NeighborsOf(b.ID) {
			sr, dr, size := assign[i], assign[index[nb.ID]], boundaryBytes[int(nb.Kind)]
			if sr == dr {
				continue
			}
			if aggregate {
				bundle[[2]int{sr, dr}] += size
			} else {
				plan.add(sr, dr, size)
			}
		}
	}
	if aggregate {
		// One combined message per pair, posted in (source, destination) order.
		for sr := 0; sr < ranks; sr++ {
			for dr := 0; dr < ranks; dr++ {
				if sz, ok := bundle[[2]int{sr, dr}]; ok {
					plan.add(sr, dr, sz)
				}
			}
		}
	}
	return plan
}
