// Package sim is a deterministic discrete-event simulation engine with a
// process (coroutine) model, the foundation of the simulated MPI cluster.
//
// The paper's placement effects are causal timing chains — a straggler rank
// delays a barrier, a late send stalls a remote wait — so the substitution
// for the real 600-node cluster is a virtual-time simulator that reproduces
// exactly those chains. Determinism is guaranteed by a (time, sequence)
// ordered event heap and by running exactly one process at a time: identical
// inputs replay identical schedules, which is what makes the telemetry
// experiments reproducible.
//
// Processes are runtime coroutines (iter.Pull): the engine resumes a
// process, the process runs until it blocks (Sleep, Await) or finishes, then
// yields back. A switch swaps stacks directly without entering the Go
// scheduler, exactly one side runs at a time, so process code needs no
// locking, and Close unwinds every unfinished process deterministically.
//
// The engine is also the hot path of every experiment (millions of events
// per run), so scheduling is allocation-free in steady state: events are
// typed payloads, not closures. The generic At/After closure form remains
// for cold paths; the per-message fast paths (future completion, message
// delivery) have dedicated typed variants so the MPI layer never allocates
// to schedule them, and most of them skip the heap and the arena: they wait,
// payload and all, in a process's FIFO lanes (see Ring).
package sim

import (
	"errors"
	"fmt"

	"amrtools/internal/metrics"
)

// Time is virtual time in seconds.
type Time = float64

// ErrInterrupted is the panic value raised by Run (and Shards.Run) when the
// interrupt hook installed with SetInterrupt reports true. Callers that want
// to cancel a simulation (the campaign harness's timeout path) recover it,
// close the machine, and turn it into a run error; any other panic value
// still propagates.
var ErrInterrupted = errors.New("sim: run interrupted")

// evKind discriminates the payload variants of a scheduled event.
type evKind uint8

const (
	// evFn executes a closure inline (generic cold-path events).
	evFn evKind = iota
	// evProc resumes a blocked process.
	evProc
	// evFuture completes a Future at the scheduled time.
	evFuture
	// evMsg delivers a message payload to the engine's registered MsgSink.
	evMsg
	// evSilent executes a closure without counting it in Events(). The
	// sharded scheduler injects coordinator-originated work (collective
	// releases) with it and accounts the work once at the coordinator, so
	// Events() stays equal to the sequential engine's count for any shard
	// count.
	evSilent
)

// event is a heap entry: ordering key plus an index into the engine's body
// arena. Keeping entries at 24 bytes makes the sift operations — the
// hottest loop of every simulation — move 3 words per swap and pack three
// entries per cache line, while the payload (which sift never reads) stays
// put in its arena slot.
type event struct {
	t   Time
	seq int64
	// idx indexes Engine.bodies — or, when negative, names lane -1-idx (see
	// laneID): the heap holds each non-empty lane as one entry keyed by the
	// lane's front, whose payload the ring holds. A sign, not a second int32
	// field: push would store the two halves separately and pop reload them
	// as one word, a store-forwarding stall on every event.
	idx int32
}

// evBody is the payload of one heap event. Exactly one variant (fn, proc,
// fut, or the msg fields) is meaningful, selected by kind. Bodies live in an
// engine-owned arena recycled through a free list, so scheduling allocates
// only when the pending-event high-water mark grows. Typed events that wait
// in a lane never touch it: the arena holds process resumes, closures,
// silent injections and the typed events that missed their lane.
type evBody struct {
	fn    func()
	proc  *Proc
	fut   *Future
	bytes int64
	src   int32
	dst   int32
	tag   int32
	kind  evKind
	local bool
}

// MsgSink receives typed message-delivery events scheduled with DeliverAt.
// The MPI world registers itself once per engine; the payload fields are
// exactly what its matching logic needs, so a delivery costs no closure.
type MsgSink interface {
	DeliverMsg(src, dst, tag int32, bytes int64, local bool)
}

// eventHeap is a binary min-heap ordered by (t, seq). It is the hottest
// data structure of every simulation, so instead of container/heap — whose
// interface{}-based Push/Pop box each event onto the Go heap and dispatch
// Less/Swap through an interface — the sift operations are inlined and
// typed: push/pop never allocate beyond slice growth.
type eventHeap []event

// less orders events by time, breaking ties by schedule sequence so
// same-time events replay in scheduling order (the determinism guarantee).
func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

// push appends ev and restores the heap by sifting it up.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes the minimum event, sifting the last one down from the root.
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	h.down()
}

// replaceTop replaces the minimum event with ev: one sift-down where a pop
// and a push would sift twice.
func (h eventHeap) replaceTop(ev event) {
	h[0] = ev
	h.down()
}

// down restores the heap after its root changed.
func (h eventHeap) down() {
	n := len(h)
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Lane kinds: the typed events a process mostly issues in nondecreasing
// time order, one lane each. In the MPI layer a send's buffer release is a
// fixed overhead after the send, and remote deliveries leave the node's
// monotone NIC clock. Local deliveries get their own lane because they land
// microseconds out where remote ones land a millisecond out: in a shared
// lane every local delivery after the first remote one would be earlier than
// the tail. A delivery lane's kind is its deliveries' local flag.
const (
	laneLocal int32 = iota
	laneRemote
	laneDone
)

// doneEntry is a future completion waiting in a done lane.
type doneEntry struct {
	t   Time
	seq int64
	fut *Future
}

// msgEntry is a message delivery waiting in a delivery lane.
type msgEntry struct {
	t             Time
	seq           int64
	bytes         int64
	src, dst, tag int32
}

// procLanes is one process's three lanes. A lane is a FIFO of pending typed
// events sorted by (t, seq), represented on the heap by one entry keyed by
// its front; a ring, so a lane that drains and refills every BSP step reuses
// its storage. The lane of kind k of the process whose Proc.lanes is i has
// the id i<<2 | k.
type procLanes struct {
	msg  [2]Ring[msgEntry] // indexed by laneLocal, laneRemote
	done Ring[doneEntry]
}

// laneID names lane k of the process whose lanes are at index i.
func laneID(i, k int32) int32 { return i<<2 | k }

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine. Engines are not safe for concurrent use: in
// sharded runs each shard drives its own Engine, and the conservative-DES
// merge protocol is the only cross-shard access path.
type Engine struct {
	now     Time
	seq     int64
	events  int64
	pq      eventHeap
	bodies  []evBody    // heap-event payload arena, indexed by event.idx
	freeB   []int32     // free slots in bodies
	lanes   []procLanes // one per spawned process, at Proc.lanes
	cur     *Proc       // the process being resumed, nil in event context
	sink    MsgSink     // receiver of evMsg payloads (set once by the MPI world)
	procs   []*Proc     // all spawned processes, for Close
	running bool
	intr    func() bool // optional cancellation poll (see SetInterrupt)

	// Event-queue accounting, flushed into mx (if set) when Run returns:
	// events appended behind a lane's tail and the heap length summed over
	// pops since the last flush, which was at sequence number flushedSeq
	// (every other event scheduled since was pushed on the heap).
	laneIn, heapLenSum, flushedSeq int64
	mx                             *metrics.SchedMetrics
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far — the DES work metric
// reported per run by the campaign harness.
func (e *Engine) Events() int64 { return e.events }

// SetSink registers the receiver of message-delivery events. At most one
// sink may be registered per engine (one MPI world per engine); registering
// a second distinct sink panics rather than silently misrouting deliveries.
func (e *Engine) SetSink(s MsgSink) {
	if e.sink != nil && e.sink != s {
		panic("sim: SetSink called twice with different sinks (one world per engine)")
	}
	e.sink = s
}

// SetMetrics attaches the run's scheduler instrument set (nil detaches it);
// Run adds the engine's event-queue counts to it on return.
func (e *Engine) SetMetrics(mx *metrics.SchedMetrics) { e.mx = mx }

// flushQueueStats adds the event-queue counts gathered since the last flush
// to mx.
func (e *Engine) flushQueueStats(mx *metrics.SchedMetrics) {
	if mx == nil {
		return
	}
	mx.LaneEvents.Add(0, e.laneIn)
	mx.HeapEvents.Add(0, e.seq-e.flushedSeq-e.laneIn)
	mx.HeapLenAtPop.Add(0, e.heapLenSum)
	e.laneIn, e.heapLenSum, e.flushedSeq = 0, 0, e.seq
}

// newEvent stores the body in a free arena slot and returns its event,
// sequenced after every event scheduled before it. The body comes by pointer
// so that it is copied once, from the caller's argument into the arena.
func (e *Engine) newEvent(t Time, b *evBody) event {
	var idx int32
	if n := len(e.freeB); n > 0 {
		idx = e.freeB[n-1]
		e.freeB = e.freeB[:n-1]
	} else {
		e.bodies = append(e.bodies, evBody{})
		idx = int32(len(e.bodies) - 1)
	}
	e.bodies[idx] = *b
	e.seq++
	return event{t: t, seq: e.seq, idx: idx}
}

// schedule queues an event on the heap.
func (e *Engine) schedule(t Time, b evBody) { e.pq.push(e.newEvent(t, &b)) }

// enlaned accounts for an entry, sequenced e.seq, that was just pushed on
// lane id, which now holds n entries. Behind the tail that is all (O(1), no
// sift); as the lane's only entry it puts the lane on the heap, keyed by the
// entry. Callers push only when the lane is empty or t is not earlier than
// its tail: every lane stays sorted by (t, seq), because seq grows with each
// event, and the heap always holds each non-empty lane keyed by its front,
// so the heap top is still the (t, seq)-least pending event and the pop
// order is the heap-only order.
func (e *Engine) enlaned(n int, t Time, id int32) {
	if n > 1 {
		e.laneIn++
		return
	}
	e.pq.push(event{t: t, seq: e.seq, idx: -1 - id})
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.schedule(t, evBody{kind: evFn, fn: fn})
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// CompleteAt schedules f to complete at absolute virtual time t — the typed
// replacement for At(t, func(){ f.Complete(e) }) on the per-message hot
// path (sender-side request completion, collective release). The caller
// must keep f alive and un-recycled until the event fires.
func (e *Engine) CompleteAt(t Time, f *Future) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if p := e.cur; p != nil {
		// Issued by the running process: its done lane, if it fits.
		if l := &e.lanes[p.lanes].done; l.n == 0 || t >= l.Back().t {
			e.seq++
			l.Push(doneEntry{t: t, seq: e.seq, fut: f})
			e.enlaned(l.n, t, laneID(p.lanes, laneDone))
			return
		}
	}
	e.schedule(t, evBody{kind: evFuture, fut: f})
}

// DeliverAt schedules a message-delivery event: at time t the registered
// MsgSink receives the payload verbatim. This is the closure-free delivery
// path — the payload is a value in a lane or the event arena, so a simulated
// message costs no heap allocation to schedule. A delivery the running
// process issues joins that process's lane of its kind.
func (e *Engine) DeliverAt(t Time, src, dst, tag int32, bytes int64, local bool) {
	k := laneRemote
	if local {
		k = laneLocal
	}
	e.deliver(t, e.cur, k, src, dst, tag, bytes)
}

// deliver schedules a delivery through delivery lane k of p when p is not
// nil and the lane is empty or its tail is not later than t, and on the heap
// otherwise. DeliverAt passes the running process; the sharded merge passes
// the destination process, whose remote lane is otherwise empty on the
// scheduler, because every cross-node send is staged.
func (e *Engine) deliver(t Time, p *Proc, k int32, src, dst, tag int32, bytes int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if e.sink == nil {
		panic("sim: DeliverAt with no MsgSink registered")
	}
	if p != nil {
		if l := &e.lanes[p.lanes].msg[k]; l.n == 0 || t >= l.Back().t {
			e.seq++
			l.Push(msgEntry{t: t, seq: e.seq, bytes: bytes, src: src, dst: dst, tag: tag})
			e.enlaned(l.n, t, laneID(p.lanes, k))
			return
		}
	}
	e.schedule(t, evBody{kind: evMsg, src: src, dst: dst, tag: tag, bytes: bytes, local: k == laneLocal})
}

// SetInterrupt installs a cancellation poll. Run (and the sharded
// scheduler's window loop) calls fn periodically — every few thousand events,
// so a hot simulation pays one predictable branch per event — and panics
// with ErrInterrupted when it reports true. fn is called from the engine
// goroutine; it must be safe to call concurrently with whatever sets the
// underlying flag (an atomic, like harness.Meter.Aborted).
func (e *Engine) SetInterrupt(fn func() bool) { e.intr = fn }

// injectSilent schedules fn at t without counting it as an executed event.
// Only the sharded coordinator uses it (between windows), so unlike the
// public scheduling API it asserts t is not in the shard's past — that would
// mean the window-safety invariant was already violated upstream.
func (e *Engine) injectSilent(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: silent injection at %v before now %v", t, e.now))
	}
	e.schedule(t, evBody{kind: evSilent, fn: fn})
}

// nextTime returns the time of the earliest pending event, if any.
func (e *Engine) nextTime() (Time, bool) {
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].t, true
}

// schedProc schedules a process resume at absolute time t.
func (e *Engine) schedProc(t Time, p *Proc) {
	if t < e.now {
		panic("sim: proc scheduled in the past")
	}
	e.schedule(t, evBody{kind: evProc, proc: p})
}

// Step executes the next event. It returns false when no events remain.
// This is the simulator's innermost loop — §profiling puts it on every
// flame graph — so it must not allocate: alloc_test.go holds the budget.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	e.heapLenSum += int64(len(e.pq))
	ev := e.pq[0]
	e.now = ev.t
	e.events++
	if ev.idx < 0 {
		e.stepLane(ev.idx)
		return true
	}
	e.pq.pop()
	b := e.bodies[ev.idx]
	e.bodies[ev.idx] = evBody{} // release fn/proc/fut references
	e.freeB = append(e.freeB, ev.idx)
	switch b.kind {
	case evFn:
		b.fn()
	case evProc:
		// The resumed process is current until it blocks: the typed events
		// it schedules meanwhile may use its lanes.
		e.cur = b.proc
		b.proc.next()
		e.cur = nil
	case evFuture:
		b.fut.Complete(e)
	case evMsg:
		e.sink.DeliverMsg(b.src, b.dst, b.tag, b.bytes, b.local)
	case evSilent:
		e.events-- // coordinator-accounted; see evSilent
		b.fn()
	default:
		panic("sim: unknown event kind")
	}
	return true
}

// stepLane executes the front of the lane the heap top names (idx < 0):
// it takes the front's payload, re-keys the heap entry by the next entry or
// drops it with the lane empty, then runs the event.
func (e *Engine) stepLane(idx int32) {
	id := -1 - idx
	pl := &e.lanes[id>>2]
	switch k := id & 3; k {
	case laneDone:
		l := &pl.done
		f := l.Pop().fut
		if l.n > 0 {
			nx := l.Front()
			e.pq.replaceTop(event{t: nx.t, seq: nx.seq, idx: idx})
		} else {
			e.pq.pop()
		}
		f.Complete(e)
	case laneLocal, laneRemote:
		l := &pl.msg[k]
		m := l.Pop()
		if l.n > 0 {
			nx := l.Front()
			e.pq.replaceTop(event{t: nx.t, seq: nx.seq, idx: idx})
		} else {
			e.pq.pop()
		}
		e.sink.DeliverMsg(m.src, m.dst, m.tag, m.bytes, k == laneLocal)
	default:
		panic("sim: unknown lane kind")
	}
}

// Run executes events until none remain, then returns the final time.
// Processes still blocked on futures at that point are stuck (a deadlock in
// the simulated program); query Blocked() to detect this.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	defer func() {
		e.running = false
		e.flushQueueStats(e.mx)
	}()
	for n := 0; e.Step(); n++ {
		if n&4095 == 0 && e.intr != nil && e.intr() {
			panic(ErrInterrupted)
		}
	}
	return e.now
}

// runWindow executes events strictly before until — one lookahead window of
// the sharded scheduler. Events at or beyond the window edge stay queued;
// the clock is left at the last executed event (not advanced to the edge),
// so injections landing inside (now, until) remain schedulable.
func (e *Engine) runWindow(until Time) {
	for len(e.pq) > 0 && e.pq[0].t < until {
		e.Step()
	}
}

// Blocked returns the processes that are blocked (not finished, not
// scheduled). A non-empty result after Run means simulated deadlock.
func (e *Engine) Blocked() []*Proc {
	var out []*Proc
	scheduled := map[*Proc]bool{}
	for _, ev := range e.pq {
		if ev.idx < 0 {
			continue // a lane: typed events only
		}
		if p := e.bodies[ev.idx].proc; p != nil {
			scheduled[p] = true
		}
	}
	for _, p := range e.procs {
		if !p.finished && !scheduled[p] {
			out = append(out, p)
		}
	}
	return out
}

// Close unwinds every unfinished process (each sees its pending block panic
// with a killed marker, recovered by the process epilogue), releasing their
// coroutines. Closing twice is harmless; the engine must not otherwise be
// used afterwards.
func (e *Engine) Close() {
	for _, p := range e.procs {
		p.stop()
	}
	e.procs = nil
}
