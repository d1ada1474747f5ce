package mpi

import (
	"testing"

	"amrtools/internal/check"
	"amrtools/internal/sim"
	"amrtools/internal/simnet"
)

// newSharded builds a sharded world over nodes×rpn ranks split into nshards
// contiguous node groups, mirroring the driver's mapping.
func newSharded(t *testing.T, cfg simnet.Config, nshards int) (*sim.Shards, *World) {
	t.Helper()
	shardOfNode := make([]int32, cfg.Nodes)
	for nd := range shardOfNode {
		shardOfNode[nd] = int32(nd * nshards / cfg.Nodes)
	}
	shs := sim.NewShards(nshards, cfg.Lookahead())
	net := simnet.NewSharded(shs.Engines(), shardOfNode, cfg)
	return shs, NewShardedWorld(shs, net, shardOfNode)
}

// meters snapshots every rank's Meter.
func meters(w *World) []Meter {
	out := make([]Meter, w.NumRanks())
	for r := range out {
		out[r] = w.Meter(r)
	}
	return out
}

// exerciseWorld is a small cross-node ring program: every rank sends to its
// slot on the next node, receives from the previous, barriers, allreduces.
func exerciseWorld(w *World, computed []float64) {
	n := w.NumRanks()
	rpn := w.Net().Config().RanksPerNode
	for r := 0; r < n; r++ {
		r := r
		w.Spawn(r, func(c *Comm) {
			next := (r + rpn) % n // same slot on the next node: always remote
			prev := (r - rpn + n) % n
			for round := 0; round < 3; round++ {
				rq := c.Irecv(prev, round)
				sq := c.Isend(next, round, 2048)
				c.Compute(1e-4 * float64(r%rpn+1))
				c.Wait(rq)
				c.Wait(sq)
				c.Barrier()
			}
			computed[r] = c.AllreduceSum(float64(r + 1))
		})
	}
}

// TestShardedIdentityAcrossShardCounts: the same program over 1, 2, and 4
// shards must produce bit-identical meters, clocks, event counts, and
// censuses — the conservative scheduler's core promise.
func TestShardedIdentityAcrossShardCounts(t *testing.T) {
	type outcome struct {
		now    sim.Time
		events int64
		meters []Meter
		sums   []float64
		census simnet.Census
	}
	run := func(nshards int) outcome {
		cfg := quietConfig(4, 2)
		shs, w := newSharded(t, cfg, nshards)
		sums := make([]float64, w.NumRanks())
		exerciseWorld(w, sums)
		shs.Run()
		if blocked := shs.Blocked(); len(blocked) != 0 {
			t.Fatalf("nshards=%d: %d ranks blocked", nshards, len(blocked))
		}
		w.AuditTeardown()
		defer shs.Close()
		out := outcome{now: shs.Now(), events: shs.Events(), sums: sums,
			census: w.Net().CensusTotal()}
		out.meters = meters(w)
		return out
	}
	base := run(1)
	wantSum := 0.0
	for r := 1; r <= 8; r++ {
		wantSum += float64(r)
	}
	for _, s := range base.sums {
		if s != wantSum {
			t.Fatalf("allreduce sum %v, want %v", s, wantSum)
		}
	}
	for _, nshards := range []int{2, 4} {
		got := run(nshards)
		if got.now != base.now || got.events != base.events {
			t.Fatalf("nshards=%d: (now, events) = (%v, %d), want (%v, %d)",
				nshards, got.now, got.events, base.now, base.events)
		}
		if got.census != base.census {
			t.Fatalf("nshards=%d census %+v != base %+v", nshards, got.census, base.census)
		}
		for r := range got.meters {
			if got.meters[r] != base.meters[r] {
				t.Fatalf("nshards=%d rank %d meter %+v != base %+v",
					nshards, r, got.meters[r], base.meters[r])
			}
		}
		for r := range got.sums {
			if got.sums[r] != base.sums[r] {
				t.Fatalf("nshards=%d rank %d sum %v != base %v",
					nshards, r, got.sums[r], base.sums[r])
			}
		}
	}
}

// TestShardedMatchesSequentialQuiet: with all randomness disabled (no
// jitter, no ACK faults, no contention) the sharded world must reproduce the
// single-engine world exactly — same makespan, meters, and event count.
func TestShardedMatchesSequentialQuiet(t *testing.T) {
	cfg := quietConfig(4, 2)

	eng, ws := newWorld(t, cfg)
	seqSums := make([]float64, ws.NumRanks())
	exerciseWorld(ws, seqSums)
	runWorld(t, eng)

	shs, wp := newSharded(t, cfg, 2)
	parSums := make([]float64, wp.NumRanks())
	exerciseWorld(wp, parSums)
	shs.Run()
	defer shs.Close()
	if blocked := shs.Blocked(); len(blocked) != 0 {
		t.Fatalf("%d ranks blocked", len(blocked))
	}

	if eng.Now() != shs.Now() {
		t.Fatalf("makespan: sequential %v, sharded %v", eng.Now(), shs.Now())
	}
	if eng.Events() != shs.Events() {
		t.Fatalf("events: sequential %d, sharded %d", eng.Events(), shs.Events())
	}
	ms, mp := meters(ws), meters(wp)
	for r := range ms {
		if ms[r] != mp[r] {
			t.Fatalf("rank %d meter: sequential %+v, sharded %+v", r, ms[r], mp[r])
		}
	}
	cs, cp := ws.Net().CensusTotal(), wp.Net().CensusTotal()
	if cs != cp {
		t.Fatalf("census: sequential %+v, sharded %+v", cs, cp)
	}
}

// TestShardedCollectiveOpMismatchViolation: two ranks entering one round
// with different operations must raise the collective-op violation at the
// coordinator merge, exactly as the single-engine path does inline.
func TestShardedCollectiveOpMismatchViolation(t *testing.T) {
	cfg := quietConfig(2, 1)
	shs, w := newSharded(t, cfg, 2)
	w.Spawn(0, func(c *Comm) { c.Barrier() })
	w.Spawn(1, func(c *Comm) { c.AllreduceSum(1) })
	v, ok := check.Catch(func() { shs.Run() })
	if !ok {
		t.Fatal("mismatched collectives did not raise a violation")
	}
	if v.Layer != "mpi" || v.Invariant != "collective-op" {
		t.Fatalf("violation = %s/%s, want mpi/collective-op", v.Layer, v.Invariant)
	}
	shs.Close()
}

// TestShardedTeardownAuditCatchesOpenRound: a rank that never completes the
// round (deadlock-by-omission) leaves arrivals pending; AuditTeardown must
// flag the open sharded round.
func TestShardedTeardownAuditCatchesOpenRound(t *testing.T) {
	cfg := quietConfig(2, 1)
	shs, w := newSharded(t, cfg, 2)
	w.Spawn(0, func(c *Comm) { c.Barrier() })
	// Rank 1 exits without joining: the round stays open forever.
	w.Spawn(1, func(c *Comm) {})
	shs.Run()
	v, ok := check.Catch(w.AuditTeardown)
	if !ok {
		t.Fatal("open sharded round passed the teardown audit")
	}
	if v.Invariant != "collective-round-open" {
		t.Fatalf("violation invariant = %s, want collective-round-open", v.Invariant)
	}
	shs.Close()
}

// TestShardedSingleRankUsesLocalCollectives: one-rank worlds bypass the
// coordinator (CollectiveLatency(1) == 0 would inject at the horizon), so
// collectives must still complete.
func TestShardedSingleRankUsesLocalCollectives(t *testing.T) {
	cfg := quietConfig(1, 1)
	shs, w := newSharded(t, cfg, 1)
	var sum float64
	w.Spawn(0, func(c *Comm) {
		c.Barrier()
		sum = c.AllreduceSum(7)
	})
	shs.Run()
	defer shs.Close()
	if blocked := shs.Blocked(); len(blocked) != 0 {
		t.Fatal("single-rank collectives deadlocked")
	}
	if sum != 7 {
		t.Fatalf("allreduce sum %v, want 7", sum)
	}
}
