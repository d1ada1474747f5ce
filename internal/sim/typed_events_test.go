package sim

import (
	"testing"

	"amrtools/internal/metrics"
	"amrtools/internal/telemetry"
)

// msgRec is a test MsgSink recording every delivery it receives.
type msgRec struct {
	src, dst, tag []int32
	bytes         []int64
	local         []bool
	at            []Time
	eng           *Engine
}

func (s *msgRec) DeliverMsg(src, dst, tag int32, bytes int64, local bool) {
	s.src = append(s.src, src)
	s.dst = append(s.dst, dst)
	s.tag = append(s.tag, tag)
	s.bytes = append(s.bytes, bytes)
	s.local = append(s.local, local)
	s.at = append(s.at, s.eng.Now())
}

func TestCompleteAtCompletesFuture(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	var got Time = -1
	e.Spawn("waiter", func(p *Proc) {
		p.Await(f)
		got = p.Now()
	})
	e.CompleteAt(3, f)
	e.Run()
	if got != 3 {
		t.Fatalf("waiter resumed at %v, want 3", got)
	}
	if !f.Done() {
		t.Fatal("future not done")
	}
}

func TestCompleteAtInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("past CompleteAt did not panic")
		}
	}()
	e.CompleteAt(5, NewFuture())
}

func TestDeliverAtRoutesPayloadToSink(t *testing.T) {
	e := NewEngine()
	s := &msgRec{eng: e}
	e.SetSink(s)
	e.DeliverAt(2, 4, 7, 9, 4096, true)
	e.DeliverAt(1, 1, 2, 3, 64, false)
	e.Run()
	if len(s.at) != 2 {
		t.Fatalf("sink saw %d deliveries, want 2", len(s.at))
	}
	// Time order: the t=1 delivery first.
	if s.at[0] != 1 || s.src[0] != 1 || s.dst[0] != 2 || s.tag[0] != 3 ||
		s.bytes[0] != 64 || s.local[0] {
		t.Fatalf("first delivery = src=%d dst=%d tag=%d bytes=%d local=%v at %v",
			s.src[0], s.dst[0], s.tag[0], s.bytes[0], s.local[0], s.at[0])
	}
	if s.at[1] != 2 || s.src[1] != 4 || s.dst[1] != 7 || s.tag[1] != 9 ||
		s.bytes[1] != 4096 || !s.local[1] {
		t.Fatalf("second delivery = src=%d dst=%d tag=%d bytes=%d local=%v at %v",
			s.src[1], s.dst[1], s.tag[1], s.bytes[1], s.local[1], s.at[1])
	}
}

func TestDeliverAtTieBreaksBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	s := &msgRec{eng: e}
	e.SetSink(s)
	// Same time, interleaved with fn events: replay must follow schedule
	// order across variants (the determinism contract).
	var order []string
	e.At(5, func() { order = append(order, "fn1") })
	e.DeliverAt(5, 0, 0, 1, 0, false)
	e.At(5, func() { order = append(order, "fn2") })
	e.DeliverAt(5, 0, 0, 2, 0, false)
	e.SetSink(s) // re-registering the same sink is fine
	e.Run()
	if len(order) != 2 || len(s.tag) != 2 {
		t.Fatalf("order=%v tags=%v", order, s.tag)
	}
	if s.tag[0] != 1 || s.tag[1] != 2 {
		t.Fatalf("same-time deliveries reordered: tags=%v", s.tag)
	}
}

func TestDeliverAtWithoutSinkPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("DeliverAt with no sink did not panic")
		}
	}()
	e.DeliverAt(1, 0, 1, 0, 0, false)
}

func TestSetSinkTwiceWithDifferentSinksPanics(t *testing.T) {
	e := NewEngine()
	e.SetSink(&msgRec{eng: e})
	defer func() {
		if recover() == nil {
			t.Fatal("second distinct SetSink did not panic")
		}
	}()
	e.SetSink(&msgRec{eng: e})
}

func TestFutureReset(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	e.Spawn("w", func(p *Proc) { p.Await(f) })
	e.CompleteAt(1, f)
	e.Run()
	f.Reset()
	if f.Done() {
		t.Fatal("reset future still done")
	}
	// The reset future must be awaitable again.
	var got Time = -1
	e.Spawn("w2", func(p *Proc) {
		p.Await(f)
		got = p.Now()
	})
	e.CompleteAt(4, f)
	e.Run()
	if got != 4 {
		t.Fatalf("second await resumed at %v, want 4", got)
	}
}

func TestResetPendingFutureWithWaiterPanics(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	e.Spawn("w", func(p *Proc) { p.Await(f) })
	// Run until the waiter parks on the pending future.
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a pending future with a waiter did not panic")
		}
		e.Close()
	}()
	f.Reset()
}

// TestQueueStatsReachMetrics: either engine adds its event-queue counts to
// the run's scheduler set when Run returns. Three rounds of an 8-send burst
// from one process: the first send of a round opens the completion lane (a
// heap push), the other seven append behind it; every event is counted once.
func TestQueueStatsReachMetrics(t *testing.T) {
	burst := func(e *Engine) {
		e.Spawn("burst", func(p *Proc) {
			var f [8]Future
			for round := 0; round < 3; round++ {
				for i := range f {
					f[i].Reset()
					e.CompleteAt(p.Now()+1, &f[i])
				}
				for i := range f {
					p.Await(&f[i])
				}
			}
		})
	}
	want := func(name string, mx *metrics.SchedMetrics, events int64) {
		t.Helper()
		if got := mx.LaneEvents.Total(); got != 21 {
			t.Errorf("%s: %d laned events, want 21", name, got)
		}
		if got := mx.LaneEvents.Total() + mx.HeapEvents.Total(); got != events {
			t.Errorf("%s: %d laned + heap events, want every event (%d)", name, got, events)
		}
		if mx.HeapLenAtPop.Total() <= 0 {
			t.Errorf("%s: heap length at pop not counted", name)
		}
	}

	e := NewEngine()
	seq := metrics.NewRunSet(1, 1, nil).Sched
	e.SetMetrics(seq)
	burst(e)
	e.Run()
	want("engine", seq, e.Events())

	s := NewShards(2, 1)
	sharded := metrics.NewRunSet(1, 1, nil).Sched
	s.SetMetrics(sharded)
	burst(s.Engine(1))
	s.Run()
	want("shards", sharded, s.Events())
}

// TestStepTouchesNoHostInstrument: the per-event path never updates a
// host-plane instrument. The engine counts its queue in plain fields and adds
// them to the scheduler set only when Run returns (DESIGN.md §11). Driven by
// Step alone — laned and heap typed events, closures, sleeps, awaits — an
// engine leaves every host instrument of its run set at zero; the Run that
// follows flushes non-zero lane and heap counts, so the set was wired.
func TestStepTouchesNoHostInstrument(t *testing.T) {
	rs := metrics.NewRunSet(2, 1, nil)
	e := NewEngine()
	e.SetMetrics(rs.Sched)
	e.SetSink(&msgRec{eng: e})
	var reqs [8]Future
	var gate Future
	e.Spawn("sender", func(p *Proc) {
		for i := range reqs {
			e.CompleteAt(p.Now()+1, &reqs[i]) // the first opens the lane, the rest append
			e.DeliverAt(p.Now()+0.5, 0, 1, int32(i), 64, i%2 == 0)
		}
		p.Sleep(0.25)
		for i := range reqs {
			p.Await(&reqs[i])
		}
	})
	e.Spawn("waiter", func(p *Proc) { p.Await(&gate) })
	e.At(2, func() { e.CompleteAt(e.Now()+1, &gate) }) // event context: heap only
	for e.Step() {
	}
	if len(e.Blocked()) != 0 || e.laneIn == 0 {
		t.Fatalf("program did not drain through its lanes: %d blocked, %d laned", len(e.Blocked()), e.laneIn)
	}
	snap := rs.Reg.Snapshot()
	planes, names, vals := snap.Strings("plane"), snap.Strings("metric"), snap.Floats("value")
	host := 0
	for i := range planes {
		if planes[i] != telemetry.HostPlane.String() {
			continue
		}
		host++
		if vals[i] != 0 {
			t.Errorf("host instrument %s = %v after Step alone, want 0", names[i], vals[i])
		}
	}
	if host == 0 {
		t.Fatal("the run set exports no host-plane rows")
	}
	e.Run()
	if rs.Sched.LaneEvents.Total() == 0 || rs.Sched.HeapEvents.Total() == 0 {
		t.Fatalf("Run flushed %d laned and %d heap events, want both non-zero",
			rs.Sched.LaneEvents.Total(), rs.Sched.HeapEvents.Total())
	}
}
