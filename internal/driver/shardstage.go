// Telemetry staging. Under the lookahead-window scheduler (Config.Shards > 0)
// a window runs its shards one after the other, so rank programs of different
// shards produce rows in shard order, not in simulated-time order: appending
// to the shared result tables or the cost recorder directly would make the
// tables depend on the shard count. Each rank instead stages rows in buffers
// owned by its shard; a merge hook flushes them between windows
// (World.OnMerge) in a deterministic order — (step, rank) for step telemetry,
// (t, rank, program order) for wait events. Flushed tables are therefore
// byte-identical for every shard count. Cost observations
// stage per rank on either engine, and rank 0 replays them into the EWMA
// recorder at the top of every redistribution.
package driver

import (
	"sort"

	"amrtools/internal/mesh"
	"amrtools/internal/mpi"
	"amrtools/internal/sim"
)

// stepRow is one rank's per-step telemetry record, staged until every rank
// has produced the same step.
type stepRow struct {
	step, node                     int
	compute, comm, sync, rebalance float64
	msgsSent, bytesSent, msgsRecvd int64
}

// waitRow is one blocking-wait record staged by a rank.
type waitRow struct {
	t    sim.Time
	dur  float64
	kind mpi.WaitKind
}

// obsRow is one per-block cost observation staged for the EWMA recorder.
type obsRow struct {
	id mesh.BlockID
	v  float64
}

// waitMerge is the flush-time sort record for staged waits.
type waitMerge struct {
	t    sim.Time
	dur  float64
	rank int32
	idx  int32
	kind mpi.WaitKind
}

// shardStage holds the per-rank staging buffers. Each rank's slices are
// appended only by the shard that owns the rank during a window and drained
// only by the merge hook between windows.
type shardStage struct {
	steps   [][]stepRow
	stepCur int // per-rank rows already flushed (ranks advance in lockstep)

	waits     [][]waitRow
	wscratch  []waitMerge
	waitsFull bool // Waits table reached maxWaitEvents; drop further rows
}

func newShardStage(nranks int) *shardStage {
	return &shardStage{
		steps: make([][]stepRow, nranks),
		waits: make([][]waitRow, nranks),
	}
}

// flushStage is the driver's merge hook, registered after the MPI world's
// collective merge so that rows staged before a barrier flush in the same
// merge that releases the next window.
func (st *runState) flushStage(sim.Time) {
	if st.res.Steps != nil {
		st.flushSteps()
	}
	if st.res.Waits != nil {
		st.flushWaits()
	}
}

// flushSteps appends complete steps — ones where every rank staged its
// row — in (step, rank) order, reporting each appended row (stepRecorded).
func (st *runState) flushSteps() {
	sg := st.stage
	for {
		ready := true
		for r := range sg.steps {
			if len(sg.steps[r]) <= sg.stepCur {
				ready = false
				break
			}
		}
		if !ready {
			break
		}
		for r := range sg.steps {
			row := &sg.steps[r][sg.stepCur]
			st.res.Steps.Append(
				row.step, r, row.node,
				row.compute, row.comm, row.sync, row.rebalance,
				row.msgsSent, row.bytesSent, row.msgsRecvd,
			)
			st.stepRecorded()
		}
		sg.stepCur++
	}
	sg.reclaimSteps()
}

// reclaimSteps resets the staging buffers once every rank is fully flushed,
// keeping their capacity (steady state stages one row per rank per step).
func (sg *shardStage) reclaimSteps() {
	if sg.stepCur == 0 {
		return
	}
	for r := range sg.steps {
		if len(sg.steps[r]) != sg.stepCur {
			return
		}
	}
	for r := range sg.steps {
		sg.steps[r] = sg.steps[r][:0]
	}
	sg.stepCur = 0
}

// flushWaits drains every rank's staged wait events into the Waits table in
// (t, rank, program-order) order. Draining fully at every merge is correct
// because wait end times are bounded by the merged horizon and later windows
// only produce later times, so batches never interleave across merges.
func (st *runState) flushWaits() {
	sg := st.stage
	sc := sg.wscratch[:0]
	for r := range sg.waits {
		for i, w := range sg.waits[r] {
			sc = append(sc, waitMerge{t: w.t, dur: w.dur, rank: int32(r), idx: int32(i), kind: w.kind})
		}
		sg.waits[r] = sg.waits[r][:0]
	}
	if len(sc) == 0 {
		sg.wscratch = sc
		return
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].t != sc[j].t {
			return sc[i].t < sc[j].t
		}
		if sc[i].rank != sc[j].rank {
			return sc[i].rank < sc[j].rank
		}
		return sc[i].idx < sc[j].idx
	})
	for _, w := range sc {
		if !st.appendWait(w.t, int(w.rank), w.kind, w.dur) {
			sg.waitsFull = true
			break
		}
	}
	sg.wscratch = sc[:0]
}

// waitAll waits on reqs, all of one kind, in order. With the wait-event
// table on (Config.CollectWaits) every wait that blocked becomes a row: t is
// when the wait ended, dur how long the rank was blocked, as Comm.Wait
// measured it.
func (st *runState) waitAll(c *mpi.Comm, reqs []*mpi.Request, kind mpi.WaitKind) {
	if st.res.Waits == nil {
		c.WaitAll(reqs)
		return
	}
	rank := c.Rank()
	for _, r := range reqs {
		dur, blocked := c.Wait(r)
		if !blocked {
			continue
		}
		t := c.Now()
		// Site 4, wait rows (DESIGN.md §10): staged on the scheduler, else
		// appended in engine order.
		if sg := st.stage; sg != nil {
			if !sg.waitsFull {
				sg.waits[rank] = append(sg.waits[rank], waitRow{t: t, dur: dur, kind: kind})
			}
			continue
		}
		st.appendWait(t, rank, kind, dur)
	}
}

// appendWait adds one wait event to the Waits table unless the table already
// holds maxWaitEvents rows, and reports whether the row was kept.
func (st *runState) appendWait(t sim.Time, rank int, kind mpi.WaitKind, dur float64) bool {
	if st.res.Waits.NumRows() >= maxWaitEvents {
		return false
	}
	ks := "recv"
	if kind == mpi.WaitSend {
		ks = "send"
	}
	st.res.Waits.Append(t, rank, ks, dur)
	return true
}

// observe stages one measured block cost in the rank's buffer;
// syncObservations replays it before the recorder is next read.
func (st *runState) observe(rank int, id mesh.BlockID, v float64) {
	st.obs[rank] = append(st.obs[rank], obsRow{id: id, v: v})
}

// syncObservations replays staged cost observations into the recorder in
// rank order. The per-block EWMA state is bit-identical to observing in
// event order: within a redistribution interval each block is observed by
// exactly one rank, and a rank's observations replay in program order.
// Called by rank 0 at the top of every redistribution, when all other ranks
// are parked at the preceding barrier (on the scheduler their staged rows
// were appended in an earlier window).
func (st *runState) syncObservations() {
	for r := range st.obs {
		for _, o := range st.obs[r] {
			st.rec.Observe(o.id, o.v)
		}
		st.obs[r] = st.obs[r][:0]
	}
}
