package sim

import (
	"fmt"
	"reflect"
	"testing"

	"amrtools/internal/xrand"
)

// The lane-free event order, kept as the reference the per-process lanes are
// checked against. oracleStep is Engine.Step as it was before lanes: every
// event is pushed on and popped off eventHeap alone. It resumes a process
// without making it the engine's current process, so every CompleteAt /
// DeliverAt takes the heap path.
func oracleStep(e *Engine) bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pq[0]
	if ev.idx < 0 {
		panic("sim: oracle popped a lane")
	}
	e.pq.pop()
	b := e.bodies[ev.idx]
	e.bodies[ev.idx] = evBody{}
	e.freeB = append(e.freeB, ev.idx)
	e.now = ev.t
	e.events++
	switch b.kind {
	case evFn:
		b.fn()
	case evProc:
		b.proc.next()
	case evFuture:
		b.fut.Complete(e)
	case evMsg:
		e.sink.DeliverMsg(b.src, b.dst, b.tag, b.bytes, b.local)
	case evSilent:
		e.events--
		b.fn()
	default:
		panic("sim: unknown event kind")
	}
	return true
}

// progSrc deals a byte string out as program choices; an exhausted input
// deals zeros.
type progSrc struct {
	data []byte
	at   int
}

func (s *progSrc) next() int {
	if s.at >= len(s.data) {
		return 0
	}
	s.at++
	return int(s.data[s.at-1])
}

// progOp is one step of a process body: a burst of typed events (op < 4), a
// sleep, an await, a closure that delivers a burst into another process's
// remote lane, or — rarely — a panic.
type progOp struct{ op, n, a int }

// program is a randomized engine workload: processes posting CompleteAt /
// DeliverAt bursts at rising, equal, falling and mixed times, sleeping and
// awaiting each other's futures; event-context schedules from the sink and
// from top-level closures; bursts delivered from event context into a
// destination process's lane, as the sharded merge does; and an optional
// Close after stopAt pops.
type program struct {
	procs  [][]progOp
	top    int
	stopAt int
}

func decodeProgram(src *progSrc) program {
	var p program
	nprocs := 1 + src.next()%4
	for i := 0; i < nprocs; i++ {
		ops := make([]progOp, src.next()%12)
		for j := range ops {
			ops[j] = progOp{op: src.next() % 9, n: src.next(), a: src.next()}
		}
		p.procs = append(p.procs, ops)
	}
	p.top = src.next() % 4
	if b := src.next(); b%4 == 0 {
		p.stopAt = 1 + b
	}
	return p
}

// popRec is one executed event as the heap handed it out.
type popRec struct {
	t     Time
	seq   int64
	kind  evKind
	src   int32
	dst   int32
	tag   int32
	bytes int64
	local bool
	fut   int // index into progRun.futs, -1 if none
	proc  string
}

// progRun is the state of one program execution: its engine and processes,
// the futures the program created (indexed in creation order) and its event
// log. Under the oracle, deliveries addressed to a process's lane take the
// heap instead.
type progRun struct {
	e      *Engine
	procs  []*Proc
	oracle bool
	futs   []*Future
	futID  map[*Future]int
	tag    int32
	log    []string // closure events and deliveries, in execution order
	merged int64    // addressed deliveries that entered a lane behind its tail
}

func (r *progRun) newFuture() *Future {
	f := NewFuture()
	r.futID[f] = len(r.futs)
	r.futs = append(r.futs, f)
	return f
}

// DeliverMsg makes the sink an event-context scheduler: some deliveries
// schedule a closure or a completion, neither of which may use a lane.
func (r *progRun) DeliverMsg(src, dst, tag int32, bytes int64, local bool) {
	r.log = append(r.log, fmt.Sprintf("msg %d>%d #%d", src, dst, tag))
	now := r.e.Now()
	if tag%3 == 0 {
		r.e.At(now+0.25*float64(tag%4), func() { r.log = append(r.log, fmt.Sprintf("fn %d", tag)) })
	}
	if tag%5 == 0 {
		r.e.CompleteAt(now+0.5, r.newFuture())
	}
}

// post schedules one typed event of the given lane kind at t.
func (r *progRun) post(t Time, kind int, proc int) {
	switch kind {
	case 0:
		r.e.CompleteAt(t, r.newFuture())
	default:
		r.tag++
		r.e.DeliverAt(t, int32(proc), int32(proc+1), r.tag, int64(r.tag)*8, kind == 1)
	}
}

// burstOffset is the time offset of event i of an n-event burst of the
// given shape: rising, equal, falling or mixed, d apart.
func burstOffset(shape, i, n, a int, d float64) float64 {
	switch shape {
	case 0:
		return d * float64(i)
	case 1:
		return d
	case 2:
		return d * float64(n-i)
	default:
		return d * float64((i*7+a)%5)
	}
}

// deliverTo delivers a burst from event context into the remote lane of
// process dst — the sharded merge's path — or, under the oracle, onto the
// heap.
func (r *progRun) deliverTo(dst int, o progOp) {
	to := r.procs[dst]
	if r.oracle {
		to = nil
	}
	n := 1 + o.n%12
	now := r.e.Now()
	for i := 0; i < n; i++ {
		r.tag++
		before := r.e.laneIn
		r.e.deliver(now+0.5+burstOffset((o.a>>2)%4, i, n, o.a, 0.25), to, laneRemote, -2, int32(dst), r.tag, 16)
		r.merged += r.e.laneIn - before
	}
}

func (r *progRun) body(proc int, ops []progOp) func(p *Proc) {
	return func(p *Proc) {
		for _, o := range ops {
			now := p.Now()
			switch o.op {
			case 0, 1, 2, 3: // a burst; o.op picks the time shape
				n := 1 + o.n%12
				d := 0.25 * float64(1+(o.a>>4)%3)
				for i := 0; i < n; i++ {
					r.post(now+burstOffset(o.op, i, n, o.a, d), (o.a+i*(1+o.n>>4))%3, proc)
				}
			case 4:
				p.Sleep(0.25 * float64(o.a%5))
			case 5, 6:
				// A future has one waiter: await only one nobody awaits yet.
				if len(r.futs) > 0 {
					if f := r.futs[o.a%len(r.futs)]; f.w == nil {
						p.Await(f)
					}
				}
			case 7:
				dst := (proc + 1 + o.a) % len(r.procs)
				r.e.At(now+0.25*float64(o.a%3), func() { r.deliverTo(dst, o) })
			default:
				if o.a < 24 {
					panic(fmt.Sprintf("proc %d panics", proc))
				}
				p.Sleep(0.5)
			}
		}
	}
}

// progResult is what one execution of a program shows: the pop sequence,
// the closure/delivery log, Events(), the panic value a process raised (if
// any), how many events entered a lane behind its tail, and how many of
// those were addressed to a destination process's lane.
type progResult struct {
	pops   []popRec
	log    []string
	events int64
	panic  any
	laned  int64
	merged int64
}

// runProgram executes prog on a fresh engine — through Engine.Step, or
// through oracleStep when oracle is set. It fails t when a panic or Close
// leaves a current process behind.
func runProgram(t testing.TB, prog program, oracle bool) progResult {
	r := &progRun{e: NewEngine(), oracle: oracle, futID: map[*Future]int{}}
	e := r.e
	e.SetSink(r)
	for i, ops := range prog.procs {
		r.procs = append(r.procs, e.Spawn(fmt.Sprintf("p%d", i), r.body(i, ops)))
	}
	for k := 0; k < prog.top; k++ {
		e.At(0.25*float64(k), func() {
			r.log = append(r.log, fmt.Sprintf("top %d", k))
			r.tag++
			e.DeliverAt(e.Now()+0.5, -1, 0, r.tag, 0, k%2 == 0)
		})
	}
	step := e.Step
	if oracle {
		step = func() bool { return oracleStep(e) }
	}
	var res progResult
	func() {
		defer func() { res.panic = recover() }()
		for n := 0; len(e.pq) > 0 && (prog.stopAt == 0 || n < prog.stopAt); n++ {
			ev := e.pq[0]
			rec := popRec{t: ev.t, seq: ev.seq, fut: -1}
			if ev.idx < 0 {
				// A lane: its front holds the payload and the heap entry's key.
				id := -1 - ev.idx
				pl := &e.lanes[id>>2]
				var t0 Time
				var seq int64
				if k := id & 3; k == laneDone {
					x := pl.done.Front()
					t0, seq, rec.kind, rec.fut = x.t, x.seq, evFuture, r.futID[x.fut]
				} else {
					m := pl.msg[k].Front()
					t0, seq, rec.kind = m.t, m.seq, evMsg
					rec.src, rec.dst, rec.tag, rec.bytes, rec.local = m.src, m.dst, m.tag, m.bytes, k == laneLocal
				}
				if t0 != ev.t || seq != ev.seq {
					t.Errorf("lane %d keyed (%v, %d) on the heap, its front is (%v, %d)", id, ev.t, ev.seq, t0, seq)
				}
			} else {
				b := e.bodies[ev.idx]
				rec.kind, rec.src, rec.dst, rec.tag, rec.bytes, rec.local = b.kind, b.src, b.dst, b.tag, b.bytes, b.local
				if b.fut != nil {
					rec.fut = r.futID[b.fut]
				}
				if b.proc != nil {
					rec.proc = b.proc.name
				}
			}
			res.pops = append(res.pops, rec)
			step()
		}
	}()
	if e.cur != nil {
		t.Errorf("current process %q left set after the run stopped (panic: %v)", e.cur.name, res.panic)
	}
	e.Close()
	if e.cur != nil {
		t.Errorf("current process %q left set after Close", e.cur.name)
	}
	res.log, res.events, res.laned, res.merged = r.log, e.Events(), e.laneIn, r.merged
	return res
}

// checkProgram runs prog through the lanes and through the oracle, asserts
// the same pops, log, Events() and panic, and returns the lanes' run.
func checkProgram(t testing.TB, prog program) progResult {
	got, want := runProgram(t, prog, false), runProgram(t, prog, true)
	for i := range min(len(got.pops), len(want.pops)) {
		if got.pops[i] != want.pops[i] {
			t.Fatalf("pop %d = %+v, oracle %+v (program %+v)", i, got.pops[i], want.pops[i], prog)
		}
	}
	if len(got.pops) != len(want.pops) {
		t.Fatalf("%d pops, oracle %d (program %+v)", len(got.pops), len(want.pops), prog)
	}
	if !reflect.DeepEqual(got.log, want.log) {
		t.Fatalf("log %v, oracle %v", got.log, want.log)
	}
	if got.events != want.events {
		t.Fatalf("Events() = %d, oracle %d", got.events, want.events)
	}
	if !reflect.DeepEqual(got.panic, want.panic) {
		t.Fatalf("panic %v, oracle %v", got.panic, want.panic)
	}
	return got
}

// TestLanesMatchHeapOracle: on random programs the laned engine pops exactly
// the oracle's (t, seq, kind, payload) sequence, with the same Events() —
// through Close mid-run and a panicking process — and lanes are really used,
// by the running process and by deliveries addressed to a destination.
func TestLanesMatchHeapOracle(t *testing.T) {
	rng := xrand.New(26)
	var laned, merged int64
	for i := 0; i < 400; i++ {
		data := make([]byte, 160)
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		res := checkProgram(t, decodeProgram(&progSrc{data: data}))
		laned += res.laned
		merged += res.merged
	}
	if laned == 0 || merged == 0 {
		t.Fatalf("%d events entered a lane behind its tail, %d of them addressed: the draw does not exercise both lane paths", laned, merged)
	}
}

// FuzzEngineOrder drives decodeProgram with arbitrary bytes; `go test` alone
// replays the seeds.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 0, 11, 200, 2, 11, 40, 1, 11, 0, 4, 3, 7, 3, 5, 9, 6, 0, 1, 0, 0})
	f.Add([]byte{1, 11, 2, 255, 17, 0, 255, 33, 3, 11, 5, 4, 1, 3, 0, 9, 7, 0, 40, 8})
	f.Add([]byte{2, 8, 7, 1, 0, 1, 5, 0, 4, 2, 9, 0, 11, 1, 16, 5, 0, 0, 7, 3, 2, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkProgram(t, decodeProgram(&progSrc{data: data}))
	})
}
