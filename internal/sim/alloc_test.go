package sim

import (
	"testing"

	"amrtools/internal/metrics"
)

// The engine is the hot path of every experiment (millions of events per
// run), so this file locks in the zero-allocation scheduling contract with
// testing.AllocsPerRun: once the event arena and heap have grown to the
// workload's high-water mark (AllocsPerRun's warm-up run does that), event
// push/pop and process switching must not allocate. A regression here
// multiplies by the ~2 events per simulated message of every campaign.

// TestEventPushPopAllocFree: scheduling and draining typed fn events must
// be allocation-free in steady state.
func TestEventPushPopAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	const batch = 1024
	per := testing.AllocsPerRun(10, func() {
		now := e.Now()
		for i := 0; i < batch; i++ {
			e.At(now+float64(i%13), fn)
		}
		for e.Step() {
		}
	})
	if per > 0 {
		t.Errorf("event push/pop allocates %.1f objects per %d-event batch, want 0", per, batch)
	}
}

// TestTypedMessageEventsAllocFree: the CompleteAt / DeliverAt fast paths
// (one each per simulated message) must be allocation-free in steady state.
func TestTypedMessageEventsAllocFree(t *testing.T) {
	e := NewEngine()
	e.SetSink(nopSink{})
	f := NewFuture()
	const batch = 512
	per := testing.AllocsPerRun(10, func() {
		now := e.Now()
		for i := 0; i < batch; i++ {
			e.DeliverAt(now+float64(i%7), 0, 1, int32(i), 64, true)
		}
		f.Reset()
		e.CompleteAt(now+100, f)
		for e.Step() {
		}
	})
	if per > 0 {
		t.Errorf("typed message events allocate %.1f objects per %d-event batch, want 0", per, batch)
	}
}

// TestLanedEventsAllocFree: the same typed events issued by a running
// process — the path that appends them to its lanes and replaces the heap
// top at pop — must be allocation-free once the lane rings have grown.
func TestLanedEventsAllocFree(t *testing.T) {
	e := NewEngine()
	e.SetSink(nopSink{})
	defer e.Close()
	var futs [64]Future
	e.Spawn("burst", func(p *Proc) {
		for {
			now := p.Now()
			for i := range futs {
				futs[i].Reset()
				e.CompleteAt(now+1, &futs[i])
				e.DeliverAt(now+1+float64(i%7), 0, 1, int32(i), 64, true)
				e.DeliverAt(now+2+float64(i), 0, 1, int32(i), 64, false)
			}
			p.Sleep(100)
		}
	})
	const perBurst = 3*len(futs) + 1 // its events plus the resume that posts the next
	per := testing.AllocsPerRun(10, func() {
		for i := 0; i < perBurst; i++ {
			e.Step()
		}
	})
	if per > 0 {
		t.Errorf("laned typed events allocate %.1f objects per %d-event burst, want 0", per, perBurst)
	}
	if e.laneIn == 0 {
		t.Fatal("no event entered a lane: the test does not exercise the lane path")
	}
}

// TestMergedDeliveriesAllocFree: a cross-shard delivery's whole scheduler
// path — staged by the source shard, merged on the coordinator into its
// destination process's remote lane, popped from the lane — must be
// allocation-free once the staging buffer, the merge's run heap and the
// lane ring have grown. Attached to a run's metrics, the lane count Run
// flushes must be non-zero: the merged deliveries waited in the lane, not on
// the heap.
func TestMergedDeliveriesAllocFree(t *testing.T) {
	s := NewShards(2, 1e-6)
	defer s.Close()
	for _, e := range s.Engines() {
		e.SetSink(nopSink{})
	}
	var never Future
	dst := s.Engine(1).Spawn("dst", func(p *Proc) { p.Await(&never) })
	const batch = 512
	cycle := func() {
		base := s.Now() + 1
		for i := 0; i < batch; i++ {
			// Two interleaved ascending runs, as two NIC clocks stage them.
			s.StageDeliveryTo(i%2, 1, dst, base+float64(i/2)+0.5*float64(i%2), int32(i%2), 0, int32(i), 64, int64(i))
		}
		s.Run()
	}
	per := testing.AllocsPerRun(10, cycle)
	if per > 0 {
		t.Errorf("stage → merge → lane → pop allocates %.1f objects per %d-delivery batch, want 0", per, batch)
	}
	ms := metrics.NewRunSet(2, 1, nil)
	s.SetMetrics(ms.Sched)
	cycle()
	if ms.Sched.LaneEvents.Total() == 0 {
		t.Error("no merged delivery entered the destination's lane: the merge fell back to the heap")
	}
}

type nopSink struct{}

func (nopSink) DeliverMsg(src, dst, tag int32, bytes int64, local bool) {}

// TestProcSwitchAllocFree: a process sleep/resume cycle (two coroutine
// switches plus one heap event) must not allocate. Spawn itself allocates
// (TestSpawnAllocBudget), so its cost is amortized over many switches and
// the budget is a small fraction per switch.
func TestProcSwitchAllocFree(t *testing.T) {
	e := NewEngine()
	const switches = 2048
	per := testing.AllocsPerRun(5, func() {
		e.Spawn("s", func(p *Proc) {
			for i := 0; i < switches; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
	}) / switches
	if per > 0.02 {
		t.Errorf("proc switch allocates %.4f objects per switch, want ~0 (spawn overhead only)", per)
	}
}

// TestSpawnAllocBudget pins what one Engine.Spawn costs, start to finish of
// a body that blocks once: the Proc, the iter.Pull coroutine with its
// closure state, and the body closure — 13 small objects on go1.24.
// Budgets that amortize a spawn (above, and mpi's per-message ones) lean on
// this number staying small; a runtime or Spawn change that moves it shows
// here under its own name.
func TestSpawnAllocBudget(t *testing.T) {
	e := NewEngine()
	const procs = 256
	per := testing.AllocsPerRun(5, func() {
		for i := 0; i < procs; i++ {
			e.Spawn("s", func(p *Proc) { p.Sleep(1) })
		}
		e.Run()
	}) / procs
	t.Logf("%.2f allocations per Spawn", per)
	if per > 16 {
		t.Errorf("Spawn allocates %.2f objects per process, budget 16", per)
	}
}
