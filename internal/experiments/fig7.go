package experiments

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"amrtools/internal/cost"
	"amrtools/internal/harness"
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
func Fig7a(opts Options) (*telemetry.Table, error) {
	scales := []SedovScale{TableIScales[0], TableIScales[2]} // 512, 2048 ranks
	meshes, rounds := 5, 20
	if opts.Quick {
		scales = []SedovScale{QuickScale}
		meshes, rounds = 2, 8
	}
	var cells []roundCell
	for _, sc := range scales {
		for _, x := range []int{0, 25, 50, 75, 100} {
			pol := placement.CPLX{X: x, ChunkSize: chunkFor(sc.Ranks)}
			id := fmt.Sprintf("%dranks-%s", sc.Ranks, pol.Name())
			cells = append(cells, roundCell{id: id, sc: sc, pol: pol, seed: opts.Seed + uint64(sc.Ranks)})
		}
	}
	return commbench(opts.Exec, "fig7a", cells, meshes, rounds)
}

// commbench is the reduce behind Fig7a and Commbench: one row per cell
// pooling its meshes' round latencies, rounds above the 10 ms
// fabric-recovery threshold discarded, and averaging their remote message
// shares.
//
// Columns: ranks, policy, mean_round_ms, p99_round_ms, remote_share.
func commbench(ex harness.Exec, campaign string, cells []roundCell, meshes, rounds int) (*telemetry.Table, error) {
	runs, err := roundCampaign(ex, campaign, cells, meshes, rounds)
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
		for _, run := range runs[i] {
			lats = append(lats, run.lats...)
			cs := run.census
			remoteShare += float64(cs.RemoteMsgs) / float64(cs.RemoteMsgs+cs.LocalMsgs)
		}
		lats = slices.DeleteFunc(lats, func(lat float64) bool { return lat > 10e-3 }) // fabric-recovery outliers
		if len(lats) == 0 {
			continue
		}
		out.Append(c.sc.Ranks, c.pol.Name(),
			stats.Mean(lats)*1e3, stats.Percentile(lats, 99)*1e3,
			remoteShare/float64(meshes))
	}
	return out, nil
}

// CommbenchConfig parameterizes a standalone commbench run (the cmd/commbench
// binary); placement policies are drop-in by name. Exec carries the campaign
// execution knobs (worker count, progress, the campaign ledger) into the
// mesh fan-out.
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
	sc := SedovScale{Ranks: cfg.Ranks, RootDims: rootDims}
	cells := make([]roundCell, len(cfg.Policies))
	for i, name := range cfg.Policies {
		pol, err := placement.ByName(name, chunkFor(cfg.Ranks))
		if err != nil {
			return nil, err
		}
		cells[i] = roundCell{id: pol.Name(), sc: sc, pol: pol, seed: cfg.Seed + uint64(cfg.Ranks)}
	}
	return commbench(cfg.Exec, "commbench", cells, cfg.Meshes, cfg.Rounds)
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

// Fig7b is scalebench's makespan panel (§VI-C middle): normalized makespan
// (relative to the trivial lower bound) across CPLX settings for the three
// representative block-cost distributions, at 1.5 blocks per rank.
//
// Columns: ranks, dist, policy, norm_makespan.
func Fig7b(opts Options) (*telemetry.Table, error) {
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
						if m.Aborted() {
							return nil, errAborted
						}
						a := pol.Assign(costs, ranks)
						rows = append(rows, row{pol.Name(),
							placement.Makespan(costs, a, ranks) / lb})
					}
					return rows, nil
				},
			})
		}
	}
	runs, err := harness.Values(harness.Run(opts.Exec, "fig7b", specs))
	if err != nil {
		return nil, err
	}
	for i, rows := range runs {
		for _, r := range rows {
			out.Append(cells[i].ranks, cells[i].dist, r.policy, r.norm)
		}
	}
	return out, nil
}

// errAborted ends a spec that sees harness.Meter.Aborted; the harness has
// already recorded its timeout.
var errAborted = errors.New("experiments: run aborted")

// fig7cSchema: placement_ms is host wall clock and the verdict follows it.
var fig7cSchema = []telemetry.ColSpec{
	telemetry.IntCol("ranks"), telemetry.StrCol("policy"),
	telemetry.FloatCol("placement_ms").Host(), telemetry.IntCol("within_50ms_budget").Host(),
}

// Fig7c is scalebench's overhead panel (§VI-C bottom): wall-clock placement
// computation time as a function of scale, for chunked CPLX and for the
// zonal variant the paper recommends beyond 16K ranks. The paper's budget
// line is 50 ms per redistribution.
//
// Columns: ranks, policy, placement_ms, within_50ms_budget (1/0).
func Fig7c(opts Options) (*telemetry.Table, error) {
	out := telemetry.NewTable(fig7cSchema...)
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
						if m.Aborted() {
							return nil, errAborted
						}
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
	runs, err := harness.Values(harness.Run(opts.Exec.Serial(), "fig7c", specs))
	if err != nil {
		return nil, err
	}
	for i, rows := range runs {
		for _, r := range rows {
			out.Append(scales[i], r.policy, r.ms, r.within)
		}
	}
	return out, nil
}
