// Conservative parallel DES: node-sharded event queues under a
// lookahead-window scheduler.
//
// The sequential Engine executes one global (t, seq) heap; at large rank
// counts that single heap is the wall-clock bottleneck (DESIGN.md §10).
// Shards splits the simulated cluster into groups of nodes, giving each
// group its own Engine, and exploits the physical property that ranks on
// different nodes can only interact through the fabric: every cross-node
// message is delayed by at least the network's lookahead bound L
// (simnet.Config.Lookahead — RemoteLatency, with per-message overhead on
// top). Events less than L apart on different shards are therefore causally
// independent and may execute in any order — including concurrently.
//
// The scheduler alternates two phases:
//
//	window  — every shard with an event before the window edge
//	          W + L executes its events strictly below the edge
//	          (W = earliest pending event across shards). Shards touch only
//	          their own state; cross-shard sends are appended to a per-shard
//	          staging buffer, never delivered directly.
//	merge   — on the coordinator goroutine: staged messages are merged in
//	          (t, src rank, per-source sequence) order and injected into
//	          their destination shards, then the registered merge hooks run (the
//	          MPI layer completes collective rounds, the driver flushes
//	          per-rank table rows). Each injection is audited against the
//	          window-safety invariant: nothing may land before the merged
//	          horizon, because events below it already executed.
//
// Determinism does not depend on the execution mode of a window (inline on
// the coordinator vs forked, one goroutine per active shard): events inside a
// window are pairwise independent across shards, each shard's own order is
// fixed by its heap, and the merge order is fixed by the merge key — so tables are
// byte-identical for any shard count N >= 1 and any GOMAXPROCS.
package sim

import (
	"math"
	"runtime"
	"sync"

	"amrtools/internal/check"
	"amrtools/internal/metrics"
)

// stagedMsg is one cross-shard message delivery parked in a staging buffer
// until the next merge. The (t, src, seq) triple is the deterministic merge
// key: seq is a per-source-rank program-order counter maintained by the MPI
// layer, so ties at equal t between sources break by rank and within a
// source by issue order — independent of shard count and worker scheduling.
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

// runHeap is the merge's min-heap of ascending runs, ordered by each run's
// first delivery; every run is non-empty.
type runHeap [][]stagedMsg

func (h runHeap) less(i, j int) bool { return stagedLess(&h[i][0], &h[j][0]) }

// down restores the heap below i after h[i]'s first delivery changed.
func (h runHeap) down(i int) {
	n := len(h)
	for {
		least := 2*i + 1
		if least >= n {
			return
		}
		if r := least + 1; r < n && h.less(r, least) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Shards is the conservative parallel scheduler: a fixed set of Engines
// (one per node group) advanced in lockstep lookahead windows. Construct
// with NewShards; all methods except the staging/injection APIs documented
// otherwise must be called from the coordinator goroutine (the Run caller).
type Shards struct {
	engs      []*Engine
	lookahead float64
	horizon   Time  // end of the last executed window; injections must land at or beyond it
	extra     int64 // coordinator-accounted events (completed collective rounds)
	paranoid  bool

	out    [][]stagedMsg // staged cross-shard deliveries, indexed by source shard
	runs   runHeap       // merge-time run cursors into out, reused across windows
	active []int         // shards with an event inside the current window, reused
	hooks  []func(horizon Time)
	intr   func() bool

	// burst is set when the coordinator itself just made the next window
	// big — the merge injected at least forkMinStaged deliveries, or a hook
	// released a collective through InjectAt — and cleared by the window that
	// follows. Only such a window is worth a fork: the compute-spread phase
	// of a BSP step crawls through windows of a handful of events on one or
	// two shards, fewer than a goroutine hand-off costs, while a ghost
	// exchange or a barrier release activates every shard at once. Execution
	// mode never affects results (see package comment).
	burst bool

	// mx, when non-nil, is the run's host-plane scheduler instrument set
	// (internal/metrics): window counts, events per window, the forked and
	// critical-path shares, merge depth. Host plane because all of it depends on the shard count;
	// updated only on the coordinator, between window executions. evBase is
	// its per-window Events() baseline, reused across windows.
	mx     *metrics.SchedMetrics
	evBase []int64

	running bool
}

// forkMinStaged is the number of staged deliveries one merge must inject for
// the window after it to fork; see Shards.burst. The windows that can repay a
// fork hold thousands of events (a ghost exchange stages ~20 000 deliveries
// at 512 ranks) and the rest hold tens, so the exact value matters little.
const forkMinStaged = 1000

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
		out:       make([][]stagedMsg, n),
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

// OnMerge registers a hook run on the coordinator after each window, once
// staged deliveries are injected. Hooks run in registration order with the
// merged horizon: every event with t < horizon has executed, and any work
// the hook injects must land at or beyond it. The MPI layer registers its
// collective-round completion here; the driver registers its table flush.
func (s *Shards) OnMerge(fn func(horizon Time)) { s.hooks = append(s.hooks, fn) }

// StageDelivery parks a cross-shard message delivery in the source shard's
// staging buffer. Safe to call from srcShard's executor during a window (the
// buffer is owned by that shard until the next merge). seq must be a
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
	s.out[srcShard] = append(s.out[srcShard], stagedMsg{
		t: t, seq: seq, bytes: bytes, to: to, src: src, dst: dst, tag: tag, dstShard: int32(dstShard),
	})
}

// InjectAt schedules coordinator-originated work (a collective release) on a
// shard. Only merge hooks may call it. The event is silent — the caller
// accounts its work via AddCoordinatorEvents so Events() stays independent
// of the shard count. A release wakes every rank of the shard at once, so
// the next window is marked a burst.
func (s *Shards) InjectAt(shard int, t Time, fn func()) {
	if t < s.horizon {
		check.Failf("sim", "window-safety",
			"coordinator injection on shard %d at t=%.9g before merged horizon %.9g",
			shard, t, s.horizon)
	}
	s.burst = true
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
// work, then returns the simulated makespan. Deadlocked processes are left
// blocked; query Blocked() as with Engine.Run.
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
	// Read once per Run, not once per process: tests change it between runs.
	// On one P a fork can only add hand-offs, so every window runs inline.
	multiP := runtime.GOMAXPROCS(0) > 1
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
		s.runOneWindow(end, multiP)
		s.horizon = end
	}
	return s.Now()
}

// mergeStaged drains every shard's staging buffer in (t, src, seq) order,
// audits each delivery against the merged horizon, and injects it into its
// destination engine. Injection order assigns destination-heap sequence
// numbers, so equal-time deliveries replay identically for any shard count.
//
// A buffer fills in its shard's execution order, so it is a few long
// ascending runs — about one per node NIC clock — not random: the merge
// splits every buffer into its maximal ascending runs and interleaves them
// through a heap of run cursors keyed by each run's next delivery, reading
// the deliveries where they were staged.
func (s *Shards) mergeStaged() {
	runs, n := s.runs[:0], 0
	for _, buf := range s.out {
		n += len(buf)
		for len(buf) > 0 {
			k := 1
			for k < len(buf) && !stagedLess(&buf[k], &buf[k-1]) {
				k++
			}
			runs = append(runs, buf[:k])
			buf = buf[k:]
		}
	}
	if n == 0 {
		return
	}
	if mx := s.mx; mx != nil {
		mx.MergeDepth.Observe(float64(n))
	}
	if n >= forkMinStaged {
		s.burst = true
	}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		runs.down(i)
	}
	for len(runs) > 0 {
		m := &runs[0][0]
		if m.t < s.horizon {
			check.Failf("sim", "window-safety",
				"staged delivery %d->%d tag %d at t=%.9g merged after horizon %.9g already executed (lookahead %.3g)",
				m.src, m.dst, m.tag, m.t, s.horizon, s.lookahead)
		}
		s.engs[m.dstShard].deliver(m.t, m.to, laneRemote, m.src, m.dst, m.tag, m.bytes)
		if r := runs[0][1:]; len(r) > 0 {
			runs[0] = r
		} else {
			last := len(runs) - 1
			runs[0] = runs[last]
			runs = runs[:last]
		}
		runs.down(0)
	}
	for i := range s.out {
		s.out[i] = s.out[i][:0]
	}
	s.runs = runs
}

// runOneWindow executes one window on every shard holding an event before
// end: inline on the coordinator, or — when the preceding merge marked a
// burst, at least two shards are active and the host has a second P —
// forked, the coordinator running the first active shard and one goroutine
// each the rest.
func (s *Shards) runOneWindow(end Time, multiP bool) {
	act := s.active[:0]
	for i, e := range s.engs {
		if t, ok := e.nextTime(); ok && t < end {
			act = append(act, i)
		}
	}
	s.active = act
	fork := s.burst && multiP && len(act) >= 2
	s.burst = false
	if mx := s.mx; mx != nil {
		mx.Windows.Inc()
		mx.ActiveShards.Observe(float64(len(act)))
		if s.evBase == nil {
			s.evBase = make([]int64, len(s.engs))
		}
		for _, i := range act {
			s.evBase[i] = s.engs[i].Events()
		}
	}
	if fork {
		s.forkWindow(act, end)
	} else {
		for _, i := range act {
			s.engs[i].runWindow(end)
		}
	}
	s.observeWindow(act, fork)
}

// forkWindow runs one window's active shards concurrently and joins them. A
// goroutine owns its engine only between the go statement and wg.Wait's
// return; the coordinator owns it otherwise, so engine state needs no locking
// and the fork and the join are the only happens-before edges required.
func (s *Shards) forkWindow(act []int, end Time) {
	panics := make([]interface{}, len(act))
	run := func(k int) {
		defer func() { panics[k] = recover() }()
		s.engs[act[k]].runWindow(end)
	}
	var wg sync.WaitGroup
	for k := 1; k < len(act); k++ {
		wg.Add(1)
		//lint:ignore determinism conservative-PDES fork-join: shards own disjoint engine state, cross-shard effects only move through the staged merge in (t, src, seq) order, and wg.Wait joins every goroutine before the window returns — so their interleaving can never reach result tables
		go func(k int) {
			defer wg.Done()
			run(k)
		}(k)
	}
	run(0)
	wg.Wait()
	// Propagate the lowest panicking shard's value, matching the inline
	// path's shard-order abort point: the panicking set is deterministic
	// (each shard's window execution is), so the surfaced panic is too.
	for _, pv := range panics {
		if pv != nil {
			panic(pv)
		}
	}
}

// observeWindow records the finished window's per-shard event deltas into
// the host-plane instruments: total events this window, the busiest shard's
// share of them (what the window costs however it runs — Σ events ÷ Σ
// critical is the run's Amdahl ceiling), the events that ran forked, and the
// max/mean imbalance across its active shards.
func (s *Shards) observeWindow(act []int, forked bool) {
	mx := s.mx
	if mx == nil || len(act) == 0 {
		return
	}
	var total, max int64
	for _, i := range act {
		d := s.engs[i].Events() - s.evBase[i]
		total += d
		if d > max {
			max = d
		}
	}
	mx.WindowEvents.Observe(float64(total))
	mx.CriticalEvents.Add(max)
	if forked {
		mx.ParallelWindows.Inc()
		mx.ParallelEvents.Add(total)
	}
	if total > 0 {
		mx.ImbalanceMax.SetMax(float64(max) * float64(len(act)) / float64(total))
	}
}
