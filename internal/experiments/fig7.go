package experiments

import (
	"fmt"
	"time"

	"amrtools/internal/cost"
	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/mesh"
	"amrtools/internal/placement"
	"amrtools/internal/stats"
	"amrtools/internal/telemetry"
	"amrtools/internal/xrand"
)

// Fig7a is commbench (§VI-C): isolate boundary communication on synthetic
// octree meshes (1–2 blocks per rank, realistic refinement) and measure
// end-to-end round latency as placement locality decreases from CPL0 to
// CPL100. Results average over several random meshes and many rounds;
// cold-start rounds and >10 ms outliers (fabric recovery, unrelated to
// placement) are discarded, exactly as the paper does.
//
// Columns: ranks, policy, mean_round_ms, p99_round_ms, remote_share.
func Fig7a(opts Options) *telemetry.Table {
	type scale struct {
		ranks    int
		rootDims [3]int
	}
	scales := []scale{{512, [3]int{8, 8, 8}}, {2048, [3]int{8, 16, 16}}}
	meshes, rounds := 5, 20
	if opts.Quick {
		scales = []scale{{128, [3]int{4, 4, 8}}}
		meshes, rounds = 2, 8
	}
	var cells []meshCell
	for _, sc := range scales {
		for _, x := range []int{0, 25, 50, 75, 100} {
			pol := placement.CPLX{X: x, ChunkSize: chunkFor(sc.ranks)}
			id := fmt.Sprintf("%dranks-%s", sc.ranks, pol.Name())
			cells = append(cells, meshCell{id: id, ranks: sc.ranks, rootDims: sc.rootDims, pol: pol})
		}
	}
	out, err := meshCampaign(opts.Exec, "fig7a", cells, opts.Seed, meshes, rounds)
	if err != nil {
		panic(err) // statically-correct specs: harness.MustValues' contract
	}
	return out
}

// meshCell is one row of a commbench table: a policy on a rank count,
// averaged over several random meshes. id prefixes the cell's spec ids.
type meshCell struct {
	id       string
	ranks    int
	rootDims [3]int
	pol      placement.Policy
}

// meshCampaign is the commbench fan-out and reduce behind Fig7a and
// Commbench: one spec per (cell, mesh), then one row per cell pooling its
// meshes' round latencies and averaging their remote shares. The per-mesh
// RNGs are split off sequentially at plan-build time, from one stream per
// cell seeded by seed + ranks, so the fan-out sees the exact streams a
// sequential loop would.
//
// Columns: ranks, policy, mean_round_ms, p99_round_ms, remote_share.
func meshCampaign(ex harness.Exec, campaign string, cells []meshCell, seed uint64, meshes, rounds int) (*telemetry.Table, error) {
	var specs []harness.Spec[meshRun]
	for _, c := range cells {
		rng := xrand.New(seed + uint64(c.ranks))
		for m := 0; m < meshes; m++ {
			specs = append(specs, commbenchSpec(
				fmt.Sprintf("%s-mesh%d", c.id, m),
				c.ranks, c.rootDims, c.pol, rounds, rng.Split()))
		}
	}
	runs, err := harness.Values(harness.Run(ex, campaign, specs))
	if err != nil {
		return nil, err
	}
	out := telemetry.NewTable(
		telemetry.IntCol("ranks"), telemetry.StrCol("policy"),
		telemetry.FloatCol("mean_round_ms"), telemetry.FloatCol("p99_round_ms"),
		telemetry.FloatCol("remote_share"),
	)
	for i, c := range cells {
		var lats []float64
		var remoteShare float64
		for _, run := range runs[i*meshes : (i+1)*meshes] {
			lats = append(lats, run.lats...)
			remoteShare += run.share
		}
		if len(lats) == 0 {
			continue
		}
		out.Append(c.ranks, c.pol.Name(),
			stats.Mean(lats)*1e3, stats.Percentile(lats, 99)*1e3,
			remoteShare/float64(meshes))
	}
	return out, nil
}

// meshRun is one commbench mesh outcome.
type meshRun struct {
	lats  []float64
	share float64
}

// commbenchSpec wraps one commbench mesh as a harness spec: rounds
// boundary-exchange rounds over one random AMR mesh under the given policy,
// keeping the round latencies and the remote message share. The cold-start
// round and rounds above the 10 ms fabric-recovery threshold are discarded.
func commbenchSpec(id string, ranks int, rootDims [3]int, pol placement.Policy, rounds int, rng *xrand.RNG) harness.Spec[meshRun] {
	return harness.Spec[meshRun]{
		ID: id,
		Run: func(m *harness.Meter) (meshRun, error) {
			plan := commbenchPlan(ranks, rootDims, pol, rng)
			res, err := runRounds(m.Aborted, rounds, rng, plan)
			if err != nil {
				return meshRun{}, err
			}
			m.AddEvents(res.events)
			var lats []float64
			for _, lat := range res.lats {
				if lat <= 10e-3 { // fabric-recovery outliers
					lats = append(lats, lat)
				}
			}
			cs := res.census
			share := float64(cs.RemoteMsgs) / float64(cs.RemoteMsgs+cs.LocalMsgs)
			return meshRun{lats: lats, share: share}, nil
		},
	}
}

// CommbenchConfig parameterizes a standalone commbench run (the cmd/commbench
// binary); placement policies are drop-in by name. Exec carries the campaign
// execution knobs (worker count, progress, metrics) into the mesh fan-out.
type CommbenchConfig struct {
	Ranks    int
	Policies []string
	Meshes   int
	Rounds   int
	Seed     uint64
	Exec     harness.Exec
}

// Commbench runs the boundary-communication microbenchmark for an arbitrary
// policy list. Ranks must be a power of two (the synthetic root grid is
// built by successive doubling).
//
// Columns: ranks, policy, mean_round_ms, p99_round_ms, remote_share.
func Commbench(cfg CommbenchConfig) (*telemetry.Table, error) {
	rootDims, err := cubeDims(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	if cfg.Meshes <= 0 || cfg.Rounds <= 1 {
		return nil, fmt.Errorf("experiments: commbench needs >=1 mesh and >=2 rounds")
	}
	cells := make([]meshCell, len(cfg.Policies))
	for i, name := range cfg.Policies {
		pol, err := placement.ByName(name, chunkFor(cfg.Ranks))
		if err != nil {
			return nil, err
		}
		cells[i] = meshCell{id: pol.Name(), ranks: cfg.Ranks, rootDims: rootDims, pol: pol}
	}
	return meshCampaign(cfg.Exec, "commbench", cells, cfg.Seed, cfg.Meshes, cfg.Rounds)
}

// cubeDims builds a near-cubic root grid with the given product, doubling
// the smallest dimension until the product is reached.
func cubeDims(ranks int) ([3]int, error) {
	dims := [3]int{1, 1, 1}
	for dims[0]*dims[1]*dims[2] < ranks {
		smallest := 0
		for d := 1; d < 3; d++ {
			if dims[d] < dims[smallest] {
				smallest = d
			}
		}
		dims[smallest] *= 2
	}
	if dims[0]*dims[1]*dims[2] != ranks {
		return dims, fmt.Errorf("experiments: rank count %d is not a power of two", ranks)
	}
	return dims, nil
}

// commbenchPlan builds one random AMR mesh, places it under pol and returns
// the round plan of its boundary exchanges.
//
// commbench simulates the full placement pipeline (§VI-C): block "costs"
// fed to the policy are per-block boundary-traffic volumes (face exchanges
// dominate), so CPLX's rebalancing diffuses the communication hotspots that
// strict locality preservation clusters onto few ranks — the mechanism
// behind the latency inversion of Fig 7 (top).
func commbenchPlan(ranks int, rootDims [3]int, pol placement.Policy, rng *xrand.RNG) *roundPlan {
	target := ranks + ranks/2 // 1.5 blocks per rank
	m := mesh.RandomRefined(rootDims[0], rootDims[1], rootDims[2], 3, target, rng)
	leaves := m.Leaves()
	n := len(leaves)

	// Directed exchange inventory and per-block traffic volumes.
	index := make(map[mesh.BlockID]int, n)
	for i, b := range leaves {
		index[b.ID] = i
	}
	type exch struct{ from, to, size int }
	var all []exch
	traffic := make([]float64, n)
	for i, b := range leaves {
		for _, nb := range m.NeighborsOf(b.ID) {
			e := exch{from: i, to: index[nb.ID], size: boundaryBytes[int(nb.Kind)]}
			all = append(all, e)
			traffic[e.from] += float64(e.size)
			traffic[e.to] += float64(e.size)
		}
	}
	// Normalize traffic to unit mean so the policy sees familiar cost
	// magnitudes.
	mean := 0.0
	for _, v := range traffic {
		mean += v
	}
	mean /= float64(n)
	for i := range traffic {
		traffic[i] /= mean
	}
	assign := pol.Assign(traffic, ranks)

	plan := newRoundPlan(ranks)
	for _, e := range all {
		if sr, dr := assign[e.from], assign[e.to]; sr != dr {
			plan.add(sr, dr, e.size)
		}
	}
	return plan
}

// boundaryBytes is the [face, edge, vertex] message size of the round
// benchmarks' blocks: the simulator's block geometry.
var boundaryBytes = driver.MessageSizes()

// Fig7b is scalebench's makespan panel (§VI-C middle): normalized makespan
// (relative to the trivial lower bound) across CPLX settings for the three
// representative block-cost distributions, at 1.5 blocks per rank.
//
// Columns: ranks, dist, policy, norm_makespan.
func Fig7b(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.IntCol("ranks"), telemetry.StrCol("dist"),
		telemetry.StrCol("policy"), telemetry.FloatCol("norm_makespan"),
	)
	scales := []int{512, 2048, 8192, 32768, 131072}
	if opts.Quick {
		scales = []int{512, 2048}
	}
	// One spec per (scale, distribution): each samples its own costs from a
	// fresh seed-derived RNG and sweeps the policy list internally.
	type row struct {
		policy string
		norm   float64
	}
	type cell struct {
		ranks int
		dist  string
	}
	var cells []cell
	var specs []harness.Spec[[]row]
	for _, ranks := range scales {
		ranks := ranks
		for _, dist := range cost.ScalebenchDistributions() {
			dist := dist
			cells = append(cells, cell{ranks, dist.Name()})
			specs = append(specs, harness.Spec[[]row]{
				ID: fmt.Sprintf("%dranks-%s", ranks, dist.Name()),
				Run: func(m *harness.Meter) ([]row, error) {
					n := ranks + ranks/2
					rng := xrand.New(opts.Seed ^ uint64(ranks))
					costs := cost.Sample(dist, n, rng)
					lb := placement.LowerBound(costs, ranks)
					policies := []placement.Policy{placement.Baseline{}}
					for _, x := range []int{0, 25, 50, 75, 100} {
						policies = append(policies, placement.CPLX{X: x, ChunkSize: 512})
					}
					rows := make([]row, 0, len(policies))
					for _, pol := range policies {
						a := pol.Assign(costs, ranks)
						rows = append(rows, row{pol.Name(),
							placement.Makespan(costs, a, ranks) / lb})
					}
					return rows, nil
				},
			})
		}
	}
	for i, rows := range harness.MustValues(harness.Run(opts.Exec, "fig7b", specs)) {
		for _, r := range rows {
			out.Append(cells[i].ranks, cells[i].dist, r.policy, r.norm)
		}
	}
	return out
}

// Fig7c is scalebench's overhead panel (§VI-C bottom): wall-clock placement
// computation time as a function of scale, for chunked CPLX and for the
// zonal variant the paper recommends beyond 16K ranks. The paper's budget
// line is 50 ms per redistribution.
//
// Columns: ranks, policy, placement_ms, within_50ms_budget (1/0).
func Fig7c(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.IntCol("ranks"), telemetry.StrCol("policy"),
		telemetry.FloatCol("placement_ms"), telemetry.IntCol("within_50ms_budget"),
	)
	scales := []int{512, 2048, 8192, 16384, 65536, 131072}
	if opts.Quick {
		scales = []int{512, 2048, 8192}
	}
	// Fig 7c measures host wall clock inside the specs, so the campaign is
	// pinned to one worker: concurrent placement computations would contend
	// for cores and inflate each other's measured times.
	type row struct {
		policy string
		ms     float64
		within int
	}
	var specs []harness.Spec[[]row]
	for _, ranks := range scales {
		ranks := ranks
		specs = append(specs, harness.Spec[[]row]{
			ID: fmt.Sprintf("%dranks", ranks),
			Run: func(m *harness.Meter) ([]row, error) {
				n := ranks + ranks/2
				rng := xrand.New(opts.Seed ^ uint64(ranks) ^ 0x7c)
				costs := cost.Sample(cost.Exponential{Mean: 1}, n, rng)
				policies := []placement.Policy{placement.CPLX{X: 50, ChunkSize: 512}}
				if ranks >= 16384 {
					policies = append(policies,
						placement.Zonal{Inner: placement.CPLX{X: 50, ChunkSize: 512}, Zones: ranks / 8192})
				}
				rows := make([]row, 0, len(policies))
				for _, pol := range policies {
					// Deliberately wall-clock: this experiment measures the real
					// latency of the placement call itself (the paper's 50 ms
					// budget), so it cannot be deterministic. experiments is
					// outside amrlint's deterministic core for exactly this case.
					best := time.Duration(1 << 62)
					for rep := 0; rep < 3; rep++ {
						start := time.Now()
						_ = pol.Assign(costs, ranks)
						if d := time.Since(start); d < best {
							best = d
						}
					}
					within := 0
					if best < 50*time.Millisecond {
						within = 1
					}
					rows = append(rows, row{pol.Name(), float64(best.Microseconds()) / 1e3, within})
				}
				return rows, nil
			},
		})
	}
	for i, rows := range harness.MustValues(harness.Run(opts.Exec.Serial(), "fig7c", specs)) {
		for _, r := range rows {
			out.Append(scales[i], r.policy, r.ms, r.within)
		}
	}
	return out
}
