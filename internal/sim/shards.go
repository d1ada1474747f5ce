// Conservative DES over node-sharded event queues under a lookahead-window
// scheduler.
//
// The sequential Engine executes one global (t, seq) heap (DESIGN.md §10).
// Shards splits the simulated cluster into groups of nodes, giving each
// group its own Engine, and exploits the physical property that ranks on
// different nodes can only interact through the fabric: every cross-node
// message is delayed by at least the network's lookahead bound L
// (simnet.Config.Lookahead — RemoteLatency, with per-message overhead on
// top). Events less than L apart on different shards are therefore causally
// independent and may execute in any order.
//
// The scheduler is one loop on the caller's goroutine, alternating two
// phases:
//
//	window  — every shard with an event before the window edge
//	          W + L executes its events strictly below the edge
//	          (W = earliest pending event across shards), one shard after
//	          the other in shard order. Shards touch only their own state;
//	          cross-shard sends are appended to the staging buffer, never
//	          delivered directly.
//	merge   — staged messages are merged in (t, src rank, per-source
//	          sequence) order and injected into their destination shards,
//	          then the registered merge hooks run (the MPI layer completes
//	          collective rounds, the driver flushes per-rank table rows).
//	          Each injection is audited against the window-safety invariant:
//	          nothing may land before the merged horizon, because events
//	          below it already executed.
//
// Events inside a window are pairwise independent across shards, each
// shard's own order is fixed by its heap, and the merge order is fixed by the
// merge key — so tables are byte-identical for any shard count N >= 1.
package sim

import (
	"math"

	"amrtools/internal/check"
	"amrtools/internal/metrics"
)

// stagedMsg is one cross-shard message delivery parked in the staging buffer
// until the next merge. The (t, src, seq) triple is the deterministic merge
// key: seq is a per-source-rank program-order counter maintained by the MPI
// layer, so ties at equal t between sources break by rank and within a
// source by issue order — independent of the shard count.
// to is the destination process, nil when the delivery was staged without
// one.
type stagedMsg struct {
	t        Time
	seq      int64
	bytes    int64
	to       *Proc
	src      int32
	dst      int32
	tag      int32
	dstShard int32
}

// stagedLess is the merge order: (t, src, seq).
func stagedLess(a, b *stagedMsg) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// stagedRun is the unmerged rest of one ascending run of the staging
// buffer: out[next:end], never empty.
type stagedRun struct{ next, end int }

// runHeap is the merge's min-heap of the staging buffer's runs, ordered by
// each run's next delivery in out.
type runHeap []stagedRun

func (h runHeap) less(out []stagedMsg, i, j int) bool {
	return stagedLess(&out[h[i].next], &out[h[j].next])
}

// down restores the heap below i after h[i]'s next delivery changed.
func (h runHeap) down(out []stagedMsg, i int) {
	n := len(h)
	for {
		least := 2*i + 1
		if least >= n {
			return
		}
		if r := least + 1; r < n && h.less(out, r, least) {
			least = r
		}
		if !h.less(out, least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Shards is the conservative scheduler: a fixed set of Engines (one per node
// group) advanced in lockstep lookahead windows. Construct with NewShards.
type Shards struct {
	engs      []*Engine
	lookahead float64
	horizon   Time  // end of the last executed window; injections must land at or beyond it
	extra     int64 // coordinator-accounted events (completed collective rounds)
	paranoid  bool

	out    []stagedMsg // staged cross-shard deliveries, in staging order
	runs   runHeap     // merge-time runs of out, reused across windows
	active []int       // shards with an event inside the current window, reused
	hooks  []func(horizon Time)
	intr   func() bool

	// mx, when non-nil, is the run's host-plane scheduler instrument set
	// (internal/metrics): each engine's event-queue counts, added when Run
	// returns.
	mx *metrics.SchedMetrics

	running bool
}

// NewShards builds n empty engines under a scheduler with the given
// lookahead bound (seconds of virtual time; must be positive — the network
// guarantees every cross-shard delivery is delayed by at least this much).
func NewShards(n int, lookahead float64) *Shards {
	if n < 1 {
		panic("sim: NewShards with no shards")
	}
	if !(lookahead > 0) {
		panic("sim: NewShards with non-positive lookahead")
	}
	s := &Shards{
		engs:      make([]*Engine, n),
		lookahead: lookahead,
		paranoid:  check.Forced(),
	}
	for i := range s.engs {
		s.engs[i] = NewEngine()
	}
	return s
}

// NumShards returns the shard count.
func (s *Shards) NumShards() int { return len(s.engs) }

// Engine returns shard i's engine. Procs spawned on it must only touch
// state owned by that shard between windows.
func (s *Shards) Engine(i int) *Engine { return s.engs[i] }

// Engines returns the per-shard engines, indexed by shard.
func (s *Shards) Engines() []*Engine { return s.engs }

// Lookahead returns the scheduler's lookahead bound.
func (s *Shards) Lookahead() float64 { return s.lookahead }

// SetParanoid enables the stage-time window-safety audit (the inject-time
// audit is always on). The global check.Force override wins.
func (s *Shards) SetParanoid(on bool) { s.paranoid = check.Enabled(on) }

// SetInterrupt installs a cancellation poll, checked once per window; Run
// panics with ErrInterrupted when it reports true.
func (s *Shards) SetInterrupt(fn func() bool) { s.intr = fn }

// SetMetrics attaches the run's scheduler instrument set (nil detaches it).
func (s *Shards) SetMetrics(mx *metrics.SchedMetrics) { s.mx = mx }

// OnMerge registers a hook run after each window, once staged deliveries
// are injected. Hooks run in registration order with the merged horizon: every event with t < horizon has executed, and any work
// the hook injects must land at or beyond it. The MPI layer registers its
// collective-round completion here; the driver registers its table flush.
func (s *Shards) OnMerge(fn func(horizon Time)) { s.hooks = append(s.hooks, fn) }

// StageDelivery parks a cross-shard message delivery, sent from shard
// srcShard, in the staging buffer until the next merge. seq must be a
// per-source-rank program-order counter — it is the deterministic tie-break
// for equal-time deliveries from the same rank. The merge schedules the
// delivery on the destination shard's heap; StageDeliveryTo names the
// process that receives it, so that it can wait in that process's lane.
func (s *Shards) StageDelivery(srcShard, dstShard int, t Time, src, dst, tag int32, bytes int64, seq int64) {
	s.StageDeliveryTo(srcShard, dstShard, nil, t, src, dst, tag, bytes, seq)
}

// StageDeliveryTo is StageDelivery addressed to the destination process to,
// spawned on shard dstShard's engine (nil: none). The merge appends the
// delivery to to's remote-delivery lane when it is not earlier than the
// lane's tail, instead of pushing it on the heap.
func (s *Shards) StageDeliveryTo(srcShard, dstShard int, to *Proc, t Time, src, dst, tag int32, bytes int64, seq int64) {
	if s.paranoid {
		// The conservative guarantee itself: a cross-shard effect must be at
		// least one lookahead away from its cause, or the window that is
		// about to execute on the destination shard could miss it.
		now := s.engs[srcShard].now
		check.Assertf(t >= now+s.lookahead, "sim", "window-safety",
			"delivery %d->%d tag %d staged at t=%.9g, within lookahead %.3g of source shard %d clock %.9g",
			src, dst, tag, t, s.lookahead, srcShard, now)
		if to != nil && to.eng != s.engs[dstShard] {
			check.Failf("sim", "staged-destination",
				"delivery %d->%d tag %d staged for process %s, which is not on shard %d",
				src, dst, tag, to.name, dstShard)
		}
	}
	s.out = append(s.out, stagedMsg{
		t: t, seq: seq, bytes: bytes, to: to, src: src, dst: dst, tag: tag, dstShard: int32(dstShard),
	})
}

// InjectAt schedules work a merge hook originates (a collective release) on
// a shard, at or beyond the merged horizon. Only merge hooks may call it. The
// event is silent — the caller accounts its work via AddCoordinatorEvents so
// Events() stays independent of the shard count.
func (s *Shards) InjectAt(shard int, t Time, fn func()) {
	if t < s.horizon {
		check.Failf("sim", "window-safety",
			"coordinator injection on shard %d at t=%.9g before merged horizon %.9g",
			shard, t, s.horizon)
	}
	s.engs[shard].injectSilent(t, fn)
}

// AddCoordinatorEvents accounts n units of coordinator work in Events().
func (s *Shards) AddCoordinatorEvents(n int64) { s.extra += n }

// Events returns the total executed events across shards plus the
// coordinator-accounted work — comparable with Engine.Events for the same
// simulated program.
func (s *Shards) Events() int64 {
	total := s.extra
	for _, e := range s.engs {
		total += e.Events()
	}
	return total
}

// Now returns the maximum shard clock — after Run, the simulated makespan.
func (s *Shards) Now() Time {
	var t Time
	for _, e := range s.engs {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// Blocked aggregates blocked processes across shards, in shard order.
func (s *Shards) Blocked() []*Proc {
	var out []*Proc
	for _, e := range s.engs {
		out = append(out, e.Blocked()...)
	}
	return out
}

// Close unwinds all unfinished processes on every shard. Closing twice is
// harmless; the scheduler must not otherwise be used afterwards.
func (s *Shards) Close() {
	for _, e := range s.engs {
		e.Close()
	}
}

// Run advances windows until every shard drains and no hook injects further
// work, then returns the simulated makespan. Every window, merge and hook
// runs on the caller's goroutine. Deadlocked processes are left blocked;
// query Blocked() as with Engine.Run.
func (s *Shards) Run() Time {
	if s.running {
		panic("sim: Run re-entered")
	}
	s.running = true
	defer func() {
		s.running = false
		for _, e := range s.engs {
			e.flushQueueStats(s.mx)
		}
	}()
	for {
		if s.intr != nil && s.intr() {
			panic(ErrInterrupted)
		}
		// Merge first: the previous window's staged deliveries and any
		// completed collective rounds are the only sources of new events, so
		// the drain check below is authoritative only after hooks ran.
		s.mergeStaged()
		for _, h := range s.hooks {
			h(s.horizon)
		}
		w := math.Inf(1)
		for _, e := range s.engs {
			if t, ok := e.nextTime(); ok && t < w {
				w = t
			}
		}
		if math.IsInf(w, 1) {
			break // drained
		}
		end := w + s.lookahead
		s.runOneWindow(end)
		s.horizon = end
	}
	return s.Now()
}

// mergeStaged drains the staging buffer in (t, src, seq) order, audits each
// delivery against the merged horizon, and injects it into its destination
// engine. Injection order assigns destination-heap sequence numbers, so
// equal-time deliveries replay identically for any shard count.
//
// The buffer fills in execution order — each active shard's window in turn
// — so it is a few long ascending runs, about one per node NIC clock, not
// random: the merge splits it into its maximal ascending runs and
// interleaves them through a heap of index ranges keyed by each run's next
// delivery, reading the deliveries where they were staged. The key is
// unique, so the merged order does not depend on where the runs break.
func (s *Shards) mergeStaged() {
	out, n := s.out, len(s.out)
	if n == 0 {
		return
	}
	runs := s.runs[:0]
	for i := 0; i < n; {
		k := i + 1
		for k < n && !stagedLess(&out[k], &out[k-1]) {
			k++
		}
		runs = append(runs, stagedRun{i, k})
		i = k
	}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		runs.down(out, i)
	}
	for len(runs) > 0 {
		m := &out[runs[0].next]
		if m.t < s.horizon {
			check.Failf("sim", "window-safety",
				"staged delivery %d->%d tag %d at t=%.9g merged after horizon %.9g already executed (lookahead %.3g)",
				m.src, m.dst, m.tag, m.t, s.horizon, s.lookahead)
		}
		s.engs[m.dstShard].deliver(m.t, m.to, laneRemote, m.src, m.dst, m.tag, m.bytes)
		if runs[0].next++; runs[0].next == runs[0].end {
			last := len(runs) - 1
			runs[0] = runs[last]
			runs = runs[:last]
		}
		runs.down(out, 0)
	}
	s.out = out[:0]
	s.runs = runs
}

// runOneWindow executes one window: every shard holding an event before end
// runs its events below end, in shard order.
func (s *Shards) runOneWindow(end Time) {
	act := s.active[:0]
	for i, e := range s.engs {
		if t, ok := e.nextTime(); ok && t < end {
			act = append(act, i)
		}
	}
	s.active = act
	for _, i := range act {
		s.engs[i].runWindow(end)
	}
}
