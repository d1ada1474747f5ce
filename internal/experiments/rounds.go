package experiments

import (
	"amrtools/internal/mpi"
	"amrtools/internal/simnet"
	"amrtools/internal/xrand"
)

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

// roundsResult is what runRounds measured: the latency of every round after
// the cold-start one, the fabric's message census and the DES events
// executed.
type roundsResult struct {
	lats   []float64
	census simnet.Census
	events int64
}

// runRounds executes `rounds` rounds of plan on a quiet tuned cluster (16
// ranks per node, no ACK loss — the round benchmarks isolate placement
// effects): each round every rank pre-posts its receives, posts its sends,
// waits for all of them and joins a barrier, and rank 0 records the release.
// shards picks the engine (mpi.Launch), the fabric seed is rng's next draw,
// and aborted (harness.Meter.Aborted) interrupts the run.
func runRounds(aborted func() bool, shards, rounds int, rng *xrand.RNG, plan *roundPlan) (roundsResult, error) {
	ranks := len(plan.sends)
	nodes := max(ranks/16, 1)
	cfg := simnet.Tuned(nodes, ranks/nodes, rng.Uint64())
	cfg.AckLossProb = 0
	world := mpi.Launch(cfg, shards)
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
	res := roundsResult{census: world.Net().CensusTotal(), events: world.Events()}
	for i := 1; i < rounds; i++ {
		res.lats = append(res.lats, releases[i]-releases[i-1])
	}
	return res, nil
}
