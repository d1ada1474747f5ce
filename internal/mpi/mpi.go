// Package mpi implements an MPI-like message-passing runtime over the
// discrete-event simulator: non-blocking point-to-point operations
// (Isend/Irecv/Wait), barriers with tree-release latency, and per-rank phase
// accounting (compute / P2P wait / synchronization / rebalance) matching the
// decomposition of the paper's Fig 6a.
//
// A simulated cluster is built and run one way: Launch(cfg, shards) returns
// a World over the engine shards selects, and Spawn / Run / Close are its
// lifecycle on either engine (launch.go).
//
// The accounting has one store: the rank-laned instrument set of
// internal/metrics (metrics.MPIMetrics), which every World owns from
// construction. Each operation adds each quantity to its lane once,
// unconditionally; Meter is a per-rank fold over those lanes, and the
// driver's phase totals and the metrics registry read the same words.
//
// Semantics follow the subset of MPI the paper's codes rely on: Isend and
// Irecv post immediately and return requests; Wait blocks until completion;
// message matching is FIFO per (source, tag) pair. Sender-side request
// completion is where the fabric's missing-ACK recovery path surfaces
// (§IV-B): without the drain-queue mitigation, MPI_Wait on a send request
// occasionally stalls for milliseconds.
//
// The runtime is the inner loop of every experiment (two DES events per
// message, millions per run), so the per-message path is allocation-free in
// steady state: requests come from the world's free list and carry their
// completion future inline, the two per-message events (sender done,
// delivery) are typed sim payloads instead of closures, and matching state
// lives inline in the slots of a per-rank open-addressed index that holds
// only keys with something queued (matchindex.go). DESIGN.md §7 records the
// allocation budget and the pooling invariants.
package mpi

import (
	"fmt"
	"sort"

	"amrtools/internal/check"
	"amrtools/internal/metrics"
	"amrtools/internal/sim"
	"amrtools/internal/simnet"
	"amrtools/internal/trace"
	"amrtools/internal/xrand"
)

// Meter is a snapshot of one rank's phase times and message counters, folded
// from the rank's instrument lanes by World.Meter. The driver differences
// successive snapshots into per-step telemetry rows.
type Meter struct {
	Compute   float64 // time in compute kernels
	CommWait  float64 // time blocked in Wait on P2P requests
	Sync      float64 // time blocked in barriers (arrival → release)
	Rebalance float64 // time charged to redistribution

	MsgsSent  int64
	MsgsRecvd int64
	BytesSent int64
	Waits     int64 // number of Wait calls that actually blocked
}

// WaitKind distinguishes which request type a Wait observed, for telemetry.
type WaitKind uint8

const (
	// WaitSend is a wait on a send request.
	WaitSend WaitKind = iota
	// WaitRecv is a wait on a receive request.
	WaitRecv
)

// reqPool is the world's request free list plus its paranoid request log.
// One goroutine runs every rank's events, on either engine, so one pool
// serves them all; the ranks draw from it in the run's deterministic event
// order, though which request object a post reuses is never observable.
type reqPool struct {
	// reqFree is the request free list: Wait returns completed requests
	// here (outside paranoid mode) and Isend/Irecv reuse them, so steady
	// state allocates no request or future per message.
	reqFree []*Request
	// posted tracks every posted request, sends and receives, for the
	// teardown audit (populated only when paranoid).
	posted []postRecord
}

// World is one simulated MPI job: a set of ranks over a Network.
type World struct {
	// mach is the machine under the world — the sequential engine or the
	// sharded scheduler — behind the lifecycle of launch.go.
	mach   machine
	net    *simnet.Network
	nranks int

	rngs []*xrand.RNG

	// mq[dst] holds the per-(source, tag) matching state of rank dst:
	// arrived-but-unmatched messages and posted-but-unmatched receives, a
	// key only while something is queued on it. Matching is FIFO per key.
	// Only rank dst's deliveries and receives touch mq[dst], and they
	// execute in the destination engine's (t, seq) order, so the matching
	// state evolves identically for any shard count.
	mq []matchIndex

	// engOf[rank] is the engine carrying rank's events and shardOf[rank]
	// its shard. A sequential world is one shard: every rank on the one
	// engine.
	engOf   []*sim.Engine
	shardOf []int32

	// pool is the request free list every rank draws from.
	pool reqPool

	// round is the open collective round, on either engine (see collective),
	// and release the sequential engine's release event for it, built once
	// so that a round schedules it without allocating.
	round   collRound
	release func()

	// shard is the scheduler-side state of a world on sim.Shards (nil on the
	// sequential engine).
	shard *shardState

	// tracer, when non-nil, receives a span for every communicator
	// operation — the flight recorder of internal/trace. The nil check at
	// each emission site is the entire disabled-path cost.
	tracer *trace.Recorder

	// mx is the sim-plane MPI instrument set (internal/metrics), laned by
	// rank: the world's only phase and message accounting. Never nil — the
	// world starts with a free-standing set and SetMetrics swaps in the
	// run's registered one. Only rank r's events ever write lane r.
	mx *metrics.MPIMetrics

	// paranoid enables the invariant audits of internal/check: collective
	// round membership inline, message/request hygiene at AuditTeardown.
	// Defaults to check.Forced() (on under test helpers). Paranoid mode
	// also disables request recycling: the teardown audit holds request
	// pointers, so reuse would launder a lost completion.
	paranoid bool
}

// shardState is the sharded world's scheduler-side state.
type shardState struct {
	s *sim.Shards
	// msgSeq is the per-source-rank program-order stamp for staged
	// cross-shard deliveries — the deterministic merge tie-break.
	msgSeq []int64
	// procOf[rank] is rank's process, which the merge delivers into.
	procOf []*sim.Proc
}

// collArrival is one rank's arrival at the current collective round.
type collArrival struct {
	t    sim.Time
	v    float64 // allreduce contribution (0 for barriers)
	rank int32
	op   string
	c    *Comm
}

// collRound accumulates a collective's arrivals until every rank has
// joined. Rounds are globally sequential — no rank arrives at round k+1
// before round k's release completed its future — so one round suffices.
type collRound struct {
	arrivals []collArrival
	members  []bool // paranoid double-join tracking
	op       string
}

// buildWorld builds the engine-independent part of a world: one rank per
// network endpoint on the engine of the shard hosting its node, RNG streams
// split in rank order.
func buildWorld(mach machine, engs []*sim.Engine, net *simnet.Network, shardOfNode []int32) *World {
	n := net.NumRanks()
	w := &World{
		mach:     mach,
		net:      net,
		nranks:   n,
		rngs:     make([]*xrand.RNG, n),
		mq:       make([]matchIndex, n),
		engOf:    make([]*sim.Engine, n),
		shardOf:  make([]int32, n),
		mx:       metrics.NewMPIMetrics(nil, n),
		paranoid: check.Forced(),
	}
	seedRoot := xrand.New(net.Config().Seed ^ 0x5eed)
	rpn := net.Config().RanksPerNode
	for i := 0; i < n; i++ {
		w.rngs[i] = seedRoot.Split()
		sh := shardOfNode[i/rpn]
		w.shardOf[i] = sh
		w.engOf[i] = engs[sh]
	}
	for _, eng := range engs {
		eng.SetSink(w)
	}
	w.release = w.releaseRound
	return w
}

// NewWorld creates a world with one rank per network endpoint on the
// sequential engine. Product code builds worlds with Launch.
func NewWorld(eng *sim.Engine, net *simnet.Network) *World {
	return buildWorld(eng, []*sim.Engine{eng}, net, make([]int32, net.Config().Nodes))
}

// NewShardedWorld creates a world over the lookahead-window scheduler:
// one rank per network endpoint, ranks routed to the shard hosting their
// node (shardOfNode must match the mapping the network was built with).
// Per-rank state — instrument lanes, RNG streams (split in rank order,
// identical to the sequential world's), matching queues — is only ever
// touched by the owning shard; a collective round completes at a window
// merge, so the released order and the reduced sum are fixed by (arrival
// time, rank), not by the shard count. Product code builds worlds with
// Launch.
func NewShardedWorld(s *sim.Shards, net *simnet.Network, shardOfNode []int32) *World {
	w := buildWorld(s, s.Engines(), net, shardOfNode)
	w.shard = &shardState{
		s:      s,
		msgSeq: make([]int64, w.nranks),
		procOf: make([]*sim.Proc, w.nranks),
	}
	s.OnMerge(w.mergeCollectives)
	return w
}

// NumRanks returns the number of ranks.
func (w *World) NumRanks() int { return w.nranks }

// Net returns the underlying network.
func (w *World) Net() *simnet.Network { return w.net }

// Meter returns a snapshot of rank's accounting, folded from its lanes.
func (w *World) Meter(rank int) Meter {
	mx := w.mx
	return Meter{
		Compute:   mx.Compute.Lane(rank),
		CommWait:  mx.CommWait.Lane(rank),
		Sync:      mx.Sync.Lane(rank),
		Rebalance: mx.Rebalance.Lane(rank),
		MsgsSent:  mx.P2PMsgs.Lane(rank),
		MsgsRecvd: mx.P2PRecvd.Lane(rank),
		BytesSent: mx.P2PBytes.Lane(rank),
		Waits:     mx.Waits.Lane(rank),
	}
}

// SetTracer attaches a flight recorder (nil detaches it).
func (w *World) SetTracer(tr *trace.Recorder) { w.tracer = tr }

// Metrics returns the world's MPI instrument set: the lanes every operation
// accounts into. Read totals only after the engines drain.
func (w *World) Metrics() *metrics.MPIMetrics { return w.mx }

// SetMetrics swaps in the run's registered MPI instrument set. The set must
// be laned by rank (metrics.NewRunSet does this): each rank only ever writes
// its own lane, in its own event order, so float phase totals fold in
// deterministic lane order for any shard count. mx must not be nil (the
// lanes are the world's accounting). Call before Spawn: anything already
// accounted stays with the set being replaced.
func (w *World) SetMetrics(mx *metrics.MPIMetrics) { w.mx = mx }

// Spawn starts rank's program as a simulated process. body receives the
// rank-bound communicator.
func (w *World) Spawn(rank int, body func(c *Comm)) {
	if rank < 0 || rank >= w.nranks {
		panic(fmt.Sprintf("mpi: spawn of invalid rank %d", rank))
	}
	eng, shard := w.engOf[rank], w.shardOf[rank]
	p := eng.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
		body(&Comm{w: w, rank: rank, p: p, eng: eng, shard: shard})
	})
	if st := w.shard; st != nil {
		st.procOf[rank] = p
	}
}

// Request is a non-blocking operation handle. Requests are owned by the
// world's free list: Wait releases the request for reuse, so a request must
// not be touched after the Wait that completed it returns (see DESIGN.md §7
// for the pooling invariants).
type Request struct {
	// fut is the completion future, inline so a request costs one
	// allocation total — and zero once the free list is warm.
	fut   sim.Future
	bytes int
	peer  int32
	tag   int32
	kind  WaitKind
	// freed marks a request returned to the free list; Wait panics on a
	// freed request to catch use-after-release deterministically.
	freed bool
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.fut.Done() }

// newRequest returns a reset request from the world's pool, or a fresh
// one, and logs it for the teardown audit when paranoid.
func (c *Comm) newRequest(kind WaitKind, bytes, peer, tag int) *Request {
	var r *Request
	pool := &c.w.pool
	if n := len(pool.reqFree); n > 0 {
		r = pool.reqFree[n-1]
		pool.reqFree = pool.reqFree[:n-1]
		r.fut.Reset()
		r.freed = false
	} else {
		r = &Request{}
	}
	r.kind = kind
	r.bytes = bytes
	r.peer = int32(peer)
	r.tag = int32(tag)
	if c.w.paranoid {
		pool.posted = append(pool.posted, postRecord{req: r, rank: c.rank})
	}
	return r
}

// release returns a completed, waited-on request to the world's free list.
// Paranoid mode marks it freed but keeps it out of the pool: the teardown
// audit asserts on the very pointers it recorded when they were posted.
func (c *Comm) release(r *Request) {
	r.freed = true
	if c.w.paranoid {
		return
	}
	c.w.pool.reqFree = append(c.w.pool.reqFree, r)
}

// Comm is a rank-bound communicator; all calls must happen on the rank's
// own process. That single-rank binding is the ownership protocol: each
// Comm (including its jitter RNG) is mutated only by the simulated process
// that owns it, which paranoid mode asserts at runtime.
type Comm struct {
	w    *World
	rank int
	p    *sim.Proc

	// eng is the engine carrying this rank's events (its shard's).
	eng   *sim.Engine
	shard int32

	// collFut/collSum are this rank's pooled collective future and
	// allreduce result: the round's release completes collFut at the
	// release time and deposits the reduced sum in collSum.
	collFut sim.Future
	collSum float64
}

// Rank returns the caller's rank id.
func (c *Comm) Rank() int { return c.rank }

// Now returns the current virtual time.
func (c *Comm) Now() sim.Time { return c.p.Now() }

// World returns the communicator's world.
func (c *Comm) World() *World { return c.w }

// Isend posts a non-blocking send of bytes to dst with the given tag and
// returns the sender-side request. The message is injected into the fabric
// immediately; the request completes when the fabric releases the send
// buffer (usually ~SendOverhead, but the ACK-recovery fault can stretch it).
func (c *Comm) Isend(dst, tag, bytes int) *Request {
	if dst == c.rank {
		panic("mpi: Isend to self; intra-rank exchanges use memcpy")
	}
	w := c.w
	if dst < 0 || dst >= w.nranks {
		panic(fmt.Sprintf("mpi: rank %d Isend to invalid peer rank %d (world has %d ranks)",
			c.rank, dst, w.nranks))
	}
	if tag != int(int32(tag)) {
		panic(fmt.Sprintf("mpi: rank %d Isend to rank %d with tag %d outside the int32 range", c.rank, dst, tag))
	}
	w.mx.P2PMsgs.Inc(c.rank)
	w.mx.P2PBytes.Add(c.rank, int64(bytes))
	plan := w.net.PlanSend(c.rank, dst, bytes)
	req := c.newRequest(WaitSend, bytes, dst, tag)
	src := c.rank
	if tr := w.tracer; tr != nil {
		now := float64(c.p.Now())
		tr.Emit(trace.Span{Rank: int32(src), Kind: trace.Isend, T0: now, T1: now,
			Peer: int32(dst), Bytes: int64(bytes), Tag: int32(tag)})
	}
	// The two per-message events, as typed payloads: sender-buffer release
	// completes the request's inline future; delivery routes back through
	// DeliverMsg. Scheduling order (sender-done first) fixes the (t, seq)
	// tie-break, so the event sequence is identical to the closure era.
	now := c.eng.Now()
	c.eng.CompleteAt(now+plan.SenderDoneAfter, &req.fut)
	// Engine-dependent site 1 of 4 (delivery staging; DESIGN.md §10).
	if st := w.shard; st != nil && !plan.Local {
		// Cross-node, therefore possibly cross-shard: the delivery detours
		// through the scheduler's staging buffer even when source and
		// destination happen to share a shard, so the injected event order —
		// and with it every table — is independent of the shard count.
		seq := st.msgSeq[src]
		st.msgSeq[src] = seq + 1
		st.s.StageDeliveryTo(int(c.shard), int(w.shardOf[dst]), st.procOf[dst], now+plan.DeliverAfter,
			int32(src), int32(dst), int32(tag), int64(bytes), seq)
	} else {
		c.eng.DeliverAt(now+plan.DeliverAfter,
			int32(src), int32(dst), int32(tag), int64(bytes), plan.Local)
	}
	return req
}

// DeliverMsg is the sim.MsgSink hook: it fires when a message arrives at
// its destination, releases the fabric-side delivery state, and matches the
// message against posted receives or queues it.
func (w *World) DeliverMsg(src, dst, tag int32, bytes int64, local bool) {
	// DeliveryDone only touches state for local messages, whose source node
	// is the destination's node — so in sharded mode this stays on the
	// executing shard, like the matching state below (owned by dst).
	w.net.DeliveryDone(int(src), simnet.SendPlan{Local: local})
	if req := w.mq[dst].deliver(msgKey{src: src, tag: tag}, bytes); req != nil {
		req.bytes = int(bytes)
		w.mx.P2PRecvd.Inc(int(dst))
		req.fut.Complete(w.engOf[dst])
	}
}

// Irecv posts a non-blocking receive for a message from src with the given
// tag. If a matching message already arrived, the request is born complete.
func (c *Comm) Irecv(src, tag int) *Request {
	w := c.w
	if src < 0 || src >= w.nranks {
		panic(fmt.Sprintf("mpi: rank %d Irecv from invalid peer rank %d (world has %d ranks)",
			c.rank, src, w.nranks))
	}
	if src == c.rank {
		panic(fmt.Sprintf("mpi: rank %d Irecv from self; intra-rank exchanges use memcpy", c.rank))
	}
	if tag != int(int32(tag)) {
		panic(fmt.Sprintf("mpi: rank %d Irecv from rank %d with tag %d outside the int32 range", c.rank, src, tag))
	}
	req := c.newRequest(WaitRecv, 0, src, tag)
	if tr := w.tracer; tr != nil {
		now := float64(c.p.Now())
		tr.Emit(trace.Span{Rank: int32(c.rank), Kind: trace.Irecv, T0: now, T1: now,
			Peer: int32(src), Tag: int32(tag)})
	}
	if bytes, matched := w.mq[c.rank].post(msgKey{src: int32(src), tag: int32(tag)}, req); matched {
		req.bytes = int(bytes)
		w.mx.P2PRecvd.Inc(c.rank)
		req.fut.Complete(c.eng)
	}
	return req
}

// Wait blocks until the request completes, charging the blocked time to the
// rank's CommWait bucket, and returns that time and whether the call blocked
// at all (a request already complete returns 0, false). Wait consumes the
// request: it returns to the world's free list, so the caller must drop the
// pointer afterwards (waiting twice on the same request panics).
func (c *Comm) Wait(req *Request) (dur float64, blocked bool) {
	if req.freed {
		panic("mpi: Wait on a request already released by a previous Wait")
	}
	if !req.fut.Done() {
		start := c.p.Now()
		c.p.Await(&req.fut)
		dur, blocked = c.p.Now()-start, true
		mx := c.w.mx
		mx.Waits.Inc(c.rank)
		mx.WaitHist.Observe(c.rank, dur)
		mx.CommWait.Add(c.rank, dur)
		if tr := c.w.tracer; tr != nil {
			kind := trace.SendWait
			if req.kind == WaitRecv {
				kind = trace.RecvWait
			}
			tr.Emit(trace.Span{Rank: int32(c.rank), Kind: kind,
				T0: float64(start), T1: float64(c.p.Now()),
				Peer: req.peer, Bytes: int64(req.bytes), Tag: req.tag})
		}
	}
	c.release(req)
	return dur, blocked
}

// WaitAll waits on every request in order.
func (c *Comm) WaitAll(reqs []*Request) {
	for _, r := range reqs {
		c.Wait(r)
	}
}

// Barrier blocks until every rank in the world has arrived, then releases
// all ranks after the collective's tree latency. The blocked interval
// (arrival → release) is charged to the Sync bucket — the paper's
// synchronization phase.
func (c *Comm) Barrier() { c.collective("barrier", trace.Barrier, 0) }

// AllreduceSum performs a blocking sum-allreduce over all ranks: every rank
// contributes v and receives the global sum. Like Barrier, it releases after
// the last arrival plus the collective tree latency (doubled: reduce +
// broadcast) and charges the blocked interval to the Sync bucket — these are
// the implicit synchronizations of §II-B that force every rank to observe
// the straggler.
func (c *Comm) AllreduceSum(v float64) float64 {
	return c.collective("allreduce", trace.Allreduce, v)
}

// collective is Barrier and AllreduceSum: the rank joins the world's round
// and blocks on its own pooled future until the round's release completes it,
// then reads the reduced sum. Only who completes the round depends on the
// engine. On the sequential engine (and in a one-rank world, whose release
// is immediate: CollectiveLatency(1) == 0) the last arrival completes it
// inline: the arrivals, in arrival order, are summed and released by one
// event. On the scheduler the round completes at the window merge after the
// last arrival (mergeCollectives).
func (c *Comm) collective(op string, kind trace.Kind, v float64) float64 {
	w := c.w
	// Safe: the previous round released and this rank resumed, so no waiter
	// can be pending on the pooled future.
	c.collFut.Reset()
	arrivedAt := c.p.Now()
	a := collArrival{t: arrivedAt, v: v, rank: int32(c.rank), op: op, c: c}
	w.addArrival(a)
	// Engine-dependent site 2 of 4 (who completes the round; DESIGN.md §10).
	if (w.shard == nil || w.nranks == 1) && len(w.round.arrivals) == w.nranks {
		c.eng.At(arrivedAt+w.releaseAfter(op), w.release)
	}
	c.p.Await(&c.collFut)
	c.released(kind, arrivedAt)
	return c.collSum
}

// released accounts a collective the caller just left: one more of its kind,
// the blocked interval (arrival → now) to Sync, and the span.
func (c *Comm) released(kind trace.Kind, arrivedAt sim.Time) {
	mx, now := c.w.mx, c.p.Now()
	if kind == trace.Barrier {
		mx.Barriers.Inc(c.rank)
	} else {
		mx.Allreduces.Inc(c.rank)
	}
	mx.Sync.Add(c.rank, now-arrivedAt)
	if tr := c.w.tracer; tr != nil {
		tr.Emit(trace.Span{Rank: int32(c.rank), Kind: kind,
			T0: float64(arrivedAt), T1: float64(now), Peer: -1, Tag: -1})
	}
}

// addArrival registers one arrival at the open round: the only place that
// enforces that every rank calls the same operation (as MPI requires) and,
// when paranoid, that no rank joins a round twice — a duplicate arrival
// would release the collective with another rank still missing.
func (w *World) addArrival(a collArrival) {
	r := &w.round
	if len(r.arrivals) == 0 {
		r.op = a.op
	} else if r.op != a.op {
		check.Failf("mpi", "collective-op",
			"mismatched collectives in one round: %s vs %s", r.op, a.op)
	}
	if w.paranoid {
		if r.members == nil {
			r.members = make([]bool, w.nranks)
		}
		check.Assertf(!r.members[a.rank], "mpi", "collective-membership",
			"rank %d joined the same %s round twice (arrival %d/%d): a duplicate arrival releases the collective with another rank still missing",
			a.rank, a.op, len(r.arrivals)+1, w.nranks)
		r.members[a.rank] = true
	}
	r.arrivals = append(r.arrivals, a)
}

// releaseAfter is the tree latency from the last arrival to the release.
func (w *World) releaseAfter(op string) float64 {
	d := w.net.CollectiveLatency(w.nranks)
	if op == "allreduce" {
		d *= 2 // reduce + broadcast
	}
	return d
}

// sum reduces the round's contributions in arrival-list order.
func (r *collRound) sum() float64 {
	var s float64
	for i := range r.arrivals {
		s += r.arrivals[i].v
	}
	return s
}

// reset empties the round for the next collective, keeping its storage.
func (r *collRound) reset() {
	r.arrivals = r.arrivals[:0]
	r.op = ""
	clear(r.members)
}

// releaseRound is the sequential engine's release event (World.release): it
// deposits the sum and completes every arrival's future in arrival order —
// the order their resumes are scheduled in — and empties the round.
func (w *World) releaseRound() {
	r := &w.round
	sum := r.sum()
	for i := range r.arrivals {
		c := r.arrivals[i].c
		c.collSum = sum
		c.collFut.Complete(c.eng)
	}
	r.reset()
}

// mergeCollectives is the world's merge hook (sim.Shards.OnMerge): once
// every rank joined the round, it completes it.
func (w *World) mergeCollectives(horizon sim.Time) {
	if len(w.round.arrivals) >= w.nranks {
		w.completeRound()
	}
}

// completeRound releases the round on the scheduler: arrivals sort by
// (time, rank) — the deterministic, shard-count-independent order — the
// allreduce sum reduces in that order, and one silent release event per
// participating shard completes its ranks' futures in rank order at
// last-arrival + tree latency. The round costs one coordinator-accounted
// event, matching the single release event of the sequential engine.
func (w *World) completeRound() {
	st := w.shard
	r := &w.round
	arr := r.arrivals
	sort.Slice(arr, func(i, j int) bool {
		if arr[i].t != arr[j].t {
			return arr[i].t < arr[j].t
		}
		return arr[i].rank < arr[j].rank
	})
	sum := r.sum()
	tRel := arr[len(arr)-1].t + w.releaseAfter(r.op)
	// Re-sort by rank: shards hold contiguous rank ranges, so rank order is
	// also shard-grouped, giving one injection per participating shard.
	sort.Slice(arr, func(i, j int) bool { return arr[i].rank < arr[j].rank })
	for i := 0; i < len(arr); {
		sh := w.shardOf[arr[i].rank]
		j := i
		for j < len(arr) && w.shardOf[arr[j].rank] == sh {
			j++
		}
		group := make([]*Comm, 0, j-i)
		for _, a := range arr[i:j] {
			group = append(group, a.c)
		}
		eng := w.engOf[arr[i].rank]
		st.s.InjectAt(int(sh), tRel, func() {
			for _, c := range group {
				c.collSum = sum
				c.collFut.Complete(eng)
			}
		})
		i = j
	}
	st.s.AddCoordinatorEvents(1)
	r.reset()
}

// Compute runs a compute kernel of the given nominal cost (seconds on a
// healthy node), applying the node's throttle factor and OS jitter. It
// returns the actual duration, which is also the measured per-block compute
// time the telemetry feeds back into placement.
func (c *Comm) Compute(cost float64) float64 {
	factor := c.w.net.ComputeFactor(c.rank)
	dur := cost * factor * c.jitter()
	start := c.p.Now()
	c.p.Sleep(dur)
	c.w.mx.Compute.Add(c.rank, dur)
	if tr := c.w.tracer; tr != nil {
		t0, t1 := float64(start), float64(c.p.Now())
		tr.Emit(trace.Span{Rank: int32(c.rank), Kind: trace.Compute,
			T0: t0, T1: t1, Peer: -1, Tag: -1})
		if factor > 1 {
			// The simulated hardware's thermal sensor: the kernel ran under a
			// node slowdown. Diagnose detectors must not read this span — it
			// is ground truth, recorded for visualization only.
			tr.Emit(trace.Span{Rank: int32(c.rank), Kind: trace.Throttle,
				T0: t0, T1: t1, Peer: -1, Tag: -1})
		}
	}
	return dur
}

// jitter returns this rank's multiplicative OS-noise factor.
func (c *Comm) jitter() float64 {
	j := c.w.net.Config().Jitter
	if j == 0 {
		return 1
	}
	v := c.w.rngs[c.rank].NormFloat64()
	if v < 0 {
		v = -v
	}
	return 1 + j*v
}

// ChargeRebalance sleeps for d and charges it to the Rebalance bucket
// (placement computation + migration time during redistribution).
func (c *Comm) ChargeRebalance(d float64) {
	if d < 0 {
		panic("mpi: negative rebalance charge")
	}
	start := c.p.Now()
	c.p.Sleep(d)
	c.w.mx.Rebalance.Add(c.rank, d)
	if tr := c.w.tracer; tr != nil {
		tr.Emit(trace.Span{Rank: int32(c.rank), Kind: trace.Rebalance,
			T0: float64(start), T1: float64(c.p.Now()), Peer: -1, Tag: -1})
	}
}

// IntraRank records a co-located block-pair exchange (memcpy, no MPI
// message, negligible time at these block sizes).
func (c *Comm) IntraRank() { c.w.net.RecordIntraRank(c.rank) }
