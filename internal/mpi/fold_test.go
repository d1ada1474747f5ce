package mpi

import (
	"fmt"
	"math"
	"testing"

	"amrtools/internal/sim"
	"amrtools/internal/xrand"
)

// foldMsg is one directed message of a generated program.
type foldMsg struct{ src, dst, tag, bytes int }

// foldRound is one round of a generated program: every rank posts its
// receives and sends, computes somewhere in between, waits for everything,
// optionally charges a rebalance, and optionally joins a collective.
type foldRound struct {
	msgs      []foldMsg
	cost      []float64 // per-rank compute cost (0 = none)
	recvLate  []bool    // per rank: compute before posting receives (arrivals queue first)
	rebalance []float64 // per-rank rebalance charge (0 = none)
	coll      int       // 0 none, 1 barrier, 2 allreduce
}

// genFoldProgram draws a deadlock-free random program over n ranks: within a
// round nothing blocks before every receive and send of the round is posted.
func genFoldProgram(rng *xrand.RNG, n int) []foldRound {
	rounds := make([]foldRound, 3+rng.Intn(5))
	for i := range rounds {
		r := &rounds[i]
		r.cost = make([]float64, n)
		r.recvLate = make([]bool, n)
		r.rebalance = make([]float64, n)
		for k := rng.Intn(4 * n); k > 0; k-- {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			r.msgs = append(r.msgs, foldMsg{src: src, dst: dst, tag: rng.Intn(3), bytes: 1 + rng.Intn(1<<16)})
		}
		for rank := 0; rank < n; rank++ {
			if rng.Intn(3) > 0 {
				r.cost[rank] = float64(1+rng.Intn(1000)) * 1e-6
			}
			r.recvLate[rank] = rng.Intn(2) == 0
			if rng.Intn(4) == 0 {
				r.rebalance[rank] = float64(1+rng.Intn(100)) * 1e-6
			}
		}
		r.coll = rng.Intn(3)
	}
	return rounds
}

// foldTally is what a rank's Meter must read, computed from the program text
// alone — plus the quantities only the run can tell: blocked-wait time and
// count, which the rank program tallies itself (Done before each Wait, the
// clock around it), independently of the lanes, and its finish time.
type foldTally struct {
	want       Meter
	bytesRecvd int64
	barriers   int64
	allreduces int64
	waited     float64
	waits      int64
	finish     sim.Time
}

// tallyFoldProgram walks the program the way spawnFoldProgram's ranks do.
func tallyFoldProgram(prog []foldRound, n int, factor func(rank int) float64) []foldTally {
	out := make([]foldTally, n)
	for _, r := range prog {
		for _, m := range r.msgs {
			out[m.src].want.MsgsSent++
			out[m.src].want.BytesSent += int64(m.bytes)
			out[m.dst].want.MsgsRecvd++
			out[m.dst].bytesRecvd += int64(m.bytes)
		}
		for rank := 0; rank < n; rank++ {
			if r.cost[rank] > 0 {
				out[rank].want.Compute += r.cost[rank] * factor(rank)
			}
			out[rank].want.Rebalance += r.rebalance[rank]
			switch r.coll {
			case 1:
				out[rank].barriers++
			case 2:
				out[rank].allreduces++
			}
		}
	}
	return out
}

// spawnFoldProgram starts the program's ranks on w.
func spawnFoldProgram(w *World, prog []foldRound, tally []foldTally) {
	for rank := 0; rank < w.NumRanks(); rank++ {
		rank := rank
		w.Spawn(rank, func(c *Comm) {
			for _, r := range prog {
				var reqs []*Request
				recvs := func() {
					for _, m := range r.msgs {
						if m.dst == rank {
							reqs = append(reqs, c.Irecv(m.src, m.tag))
						}
					}
				}
				if !r.recvLate[rank] {
					recvs()
				}
				for _, m := range r.msgs {
					if m.src == rank {
						reqs = append(reqs, c.Isend(m.dst, m.tag, m.bytes))
					}
				}
				if r.cost[rank] > 0 {
					c.Compute(r.cost[rank])
				}
				if r.recvLate[rank] {
					recvs()
				}
				for _, req := range reqs {
					if req.Done() {
						c.Wait(req)
						continue
					}
					start := c.Now()
					c.Wait(req)
					tally[rank].waited += c.Now() - start
					tally[rank].waits++
				}
				if d := r.rebalance[rank]; d > 0 {
					c.ChargeRebalance(d)
				}
				switch r.coll {
				case 1:
					c.Barrier()
				case 2:
					c.AllreduceSum(float64(rank))
				}
			}
			tally[rank].finish = c.Now()
		})
	}
}

// TestMeterIsFoldOfLanes is the property test behind "one accumulator per
// quantity": over seeded random programs, on the single engine and on 1, 2
// and 4 shards, every rank's Meter must equal a plain-Go tally of the program
// (messages, bytes, compute, rebalance exactly; blocked waits against the
// program's own tally of them; sync by conservation — a rank's phases add up to
// its finish time). A site that forgets its lane fails here. The meters must
// also be bit-identical for every shard count, and bytes sent must equal
// bytes received and the fabric's own census.
func TestMeterIsFoldOfLanes(t *testing.T) {
	const nodes, rpn = 4, 2
	const n = nodes * rpn
	for seed := uint64(1); seed <= 25; seed++ {
		cfg := quietConfig(nodes, rpn)
		cfg.ThrottledNodes = map[int]float64{int(seed) % nodes: 2}
		prog := genFoldProgram(xrand.New(seed), n)

		// engine 0 is the single engine; 1, 2, 4 are shard counts.
		var perShard [][]Meter
		for _, engine := range []int{0, 1, 2, 4} {
			name := fmt.Sprintf("seed %d engine %d", seed, engine)
			var (
				w       *World
				run     func() sim.Time
				blocked func() int
				closeFn func()
			)
			if engine == 0 {
				eng, world := newWorld(t, cfg)
				w, run, closeFn = world, eng.Run, eng.Close
				blocked = func() int { return len(eng.Blocked()) }
			} else {
				shs, world := newSharded(t, cfg, engine)
				w, run, closeFn = world, shs.Run, shs.Close
				blocked = func() int { return len(shs.Blocked()) }
			}
			tally := tallyFoldProgram(prog, n, w.Net().ComputeFactor)
			spawnFoldProgram(w, prog, tally)
			run()
			if b := blocked(); b != 0 {
				closeFn()
				t.Fatalf("%s: %d ranks blocked", name, b)
			}
			w.AuditTeardown()
			closeFn()

			got := meters(w)
			var sent, recvd, waits int64
			for rank, m := range got {
				want := tally[rank].want
				want.CommWait, want.Waits = tally[rank].waited, tally[rank].waits
				want.Sync = m.Sync // checked by conservation below
				if m != want {
					t.Fatalf("%s rank %d: Meter %+v, program tally %+v", name, rank, m, want)
				}
				phases := m.Compute + m.CommWait + m.Sync + m.Rebalance
				if fin := float64(tally[rank].finish); math.Abs(phases-fin) > 1e-9*fin {
					t.Fatalf("%s rank %d: phases sum to %.12g but the rank finished at %.12g: some blocked time reached no lane",
						name, rank, phases, fin)
				}
				if b, a := w.mx.Barriers.Lane(rank), w.mx.Allreduces.Lane(rank); b != tally[rank].barriers || a != tally[rank].allreduces {
					t.Fatalf("%s rank %d: collective lanes (%d, %d), program has (%d, %d)",
						name, rank, b, a, tally[rank].barriers, tally[rank].allreduces)
				}
				sent += m.BytesSent
				recvd += tally[rank].bytesRecvd
				waits += tally[rank].waits
			}
			if h := w.mx.WaitHist.Count(); h != waits {
				t.Fatalf("%s: wait histogram holds %d observations, the programs counted %d", name, h, waits)
			}
			cs := w.Net().CensusTotal()
			if sent != recvd || sent != cs.LocalBytes+cs.RemoteBytes {
				t.Fatalf("%s: %d bytes sent, %d received, census %d", name, sent, recvd, cs.LocalBytes+cs.RemoteBytes)
			}
			if engine > 0 {
				perShard = append(perShard, got)
			}
		}
		for i := 1; i < len(perShard); i++ {
			for rank := range perShard[i] {
				if perShard[i][rank] != perShard[0][rank] {
					t.Fatalf("seed %d rank %d: meter differs across shard counts: %+v vs %+v",
						seed, rank, perShard[i][rank], perShard[0][rank])
				}
			}
		}
	}
}
