package experiments

import (
	"fmt"
	"slices"

	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/mesh"
	"amrtools/internal/mpi"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/stats"
	"amrtools/internal/xrand"
)

// The round benchmarks (Fig7a, Commbench, NeighborhoodCollectives) share one
// pipeline: roundCampaign fans each cell out over its meshes, roundSpec runs
// one mesh's roundPlanFor plan through runRounds; callers keep their reduce.

// roundCell is one row of a round benchmark: a policy on one scale, run over
// several random meshes. id prefixes the cell's spec ids; seed seeds the
// stream its meshes are split from.
type roundCell struct {
	id   string
	sc   SedovScale
	pol  placement.Policy
	seed uint64
	// unitCosts places on unit block costs instead of boundary traffic;
	// aggregate sends one message per communicating rank pair.
	unitCosts, aggregate bool
}

// roundCampaign runs every cell on `meshes` random meshes, one spec per
// (cell, mesh) with id "<cell id>-mesh<m>", and returns each cell's runs in
// mesh order. The per-mesh RNGs are split off sequentially at plan-build
// time, from one stream per cell, so the fan-out sees the exact streams a
// sequential loop would.
func roundCampaign(ex harness.Exec, campaign string, cells []roundCell, meshes, rounds int) ([][]roundsResult, error) {
	var specs []harness.Spec[roundsResult]
	for _, c := range cells {
		rng := xrand.New(c.seed)
		for m := 0; m < meshes; m++ {
			specs = append(specs, roundSpec(fmt.Sprintf("%s-mesh%d", c.id, m), c, rounds, rng.Split()))
		}
	}
	runs, err := harness.Values(harness.Run(ex, campaign, specs))
	if err != nil {
		return nil, err
	}
	return slices.Collect(slices.Chunk(runs, meshes)), nil
}

// roundSpec wraps one mesh of a cell as a harness spec: the mesh draws from
// rng first, then runRounds draws the fabric seed.
func roundSpec(id string, c roundCell, rounds int, rng *xrand.RNG) harness.Spec[roundsResult] {
	return harness.Spec[roundsResult]{
		ID: id,
		Run: func(m *harness.Meter) (roundsResult, error) {
			plan := roundPlanFor(c, rng)
			res, err := runRounds(m.Aborted, rounds, rng, plan)
			m.AddEvents(res.events)
			return res, err
		},
	}
}

// roundPlanFor builds one random AMR mesh at 1.5 blocks per rank, places it
// under c.pol and returns the round plan of its boundary exchanges that
// cross ranks: one message per boundary element in (block, neighbor) order,
// or with c.aggregate one per communicating rank pair (perPair).
//
// Unless c.unitCosts, the block "costs" fed to the policy are per-block
// boundary-traffic volumes (face exchanges dominate), as commbench simulates
// the full placement pipeline (§VI-C): CPLX's rebalancing diffuses the
// communication hotspots that strict locality preservation clusters onto few
// ranks — the mechanism behind the latency inversion of Fig 7 (top).
func roundPlanFor(c roundCell, rng *xrand.RNG) *roundPlan {
	ranks, d := c.sc.Ranks, c.sc.RootDims
	m := mesh.RandomRefined(d[0], d[1], d[2], 3, ranks+ranks/2, rng)
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
	costs := unitCosts(n)
	if !c.unitCosts {
		// Normalize traffic to unit mean so the policy sees familiar cost
		// magnitudes.
		mean := stats.Mean(traffic)
		for i := range traffic {
			traffic[i] /= mean
		}
		costs = traffic
	}
	assign := c.pol.Assign(costs, ranks)

	plan := newRoundPlan(ranks)
	for _, e := range all {
		if sr, dr := assign[e.from], assign[e.to]; sr != dr {
			plan.add(sr, dr, e.size)
		}
	}
	if c.aggregate {
		return plan.perPair()
	}
	return plan
}

// boundaryBytes is the [face, edge, vertex] message size of the round
// benchmarks' blocks: the simulator's block geometry.
var boundaryBytes = driver.MessageSizes()

// roundMsg is one message as the rank posting it sees it.
type roundMsg struct{ peer, tag, size int }

// roundPlan is one boundary-exchange round as each rank executes it:
// recvs[r] and sends[r] are rank r's posts, in posting order. Tags are
// unique per message and below ntags, so round k offsets them by k*ntags.
type roundPlan struct {
	recvs, sends [][]roundMsg
	ntags        int
}

func newRoundPlan(ranks int) *roundPlan {
	return &roundPlan{recvs: make([][]roundMsg, ranks), sends: make([][]roundMsg, ranks)}
}

// add appends one message src → dst to the plan.
func (p *roundPlan) add(src, dst, size int) {
	p.sends[src] = append(p.sends[src], roundMsg{dst, p.ntags, size})
	p.recvs[dst] = append(p.recvs[dst], roundMsg{src, p.ntags, size})
	p.ntags++
}

// perPair bundles p into one message per communicating rank pair carrying
// the pair's bytes (the effect of an MPI neighborhood collective), posted in
// (source, destination) order. Message sizes are positive, so a pair
// communicates iff its byte sum is.
func (p *roundPlan) perPair() *roundPlan {
	ranks := len(p.sends)
	out := newRoundPlan(ranks)
	bytes := make([]int, ranks)
	for src, sends := range p.sends {
		for _, e := range sends {
			bytes[e.peer] += e.size
		}
		for dst, size := range bytes {
			if size > 0 {
				out.add(src, dst, size)
				bytes[dst] = 0
			}
		}
	}
	return out
}

// roundsResult is what runRounds measured: the latency of every round after
// the cold-start one, the messages one round posts, the fabric's message
// census and the DES events executed.
type roundsResult struct {
	lats   []float64
	msgs   int
	census simnet.Census
	events int64
}

// runRounds executes `rounds` rounds of plan on a quiet tuned cluster (16
// ranks per node, no ACK loss — the round benchmarks isolate placement
// effects): each round every rank pre-posts its receives, posts its sends,
// waits for all of them and joins a barrier, and rank 0 records the release.
// The world runs on the sequential engine, the fabric seed is rng's next
// draw, and aborted (harness.Meter.Aborted) interrupts the run.
func runRounds(aborted func() bool, rounds int, rng *xrand.RNG, plan *roundPlan) (roundsResult, error) {
	ranks := len(plan.sends)
	nodes := max(ranks/16, 1)
	cfg := simnet.Tuned(nodes, ranks/nodes, rng.Uint64())
	cfg.AckLossProb = 0
	world := mpi.Launch(cfg, 0)
	defer world.Close()
	world.SetInterrupt(aborted)

	releases := make([]float64, rounds)
	for r := 0; r < ranks; r++ {
		recvs, sends := plan.recvs[r], plan.sends[r]
		world.Spawn(r, func(c *mpi.Comm) {
			reqs := make([]*mpi.Request, 0, len(recvs)+len(sends))
			for round := 0; round < rounds; round++ {
				base := round * plan.ntags
				reqs = reqs[:0]
				for _, e := range recvs {
					reqs = append(reqs, c.Irecv(e.peer, base+e.tag))
				}
				for _, e := range sends {
					reqs = append(reqs, c.Isend(e.peer, base+e.tag, e.size))
				}
				c.WaitAll(reqs)
				c.Barrier()
				if c.Rank() == 0 {
					releases[round] = c.Now()
				}
			}
		})
	}
	if err := world.Run(); err != nil {
		return roundsResult{}, err
	}
	res := roundsResult{msgs: plan.ntags, census: world.Net().CensusTotal(), events: world.Events()}
	for i := 1; i < rounds; i++ {
		res.lats = append(res.lats, releases[i]-releases[i-1])
	}
	return res, nil
}
