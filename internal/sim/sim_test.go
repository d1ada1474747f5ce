package sim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(2, func() { order = append(order, 2) })
	e.At(1, func() { order = append(order, 1) })
	e.At(3, func() { order = append(order, 3) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("end time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("past scheduling did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake []Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1)
		wake = append(wake, p.Now())
		p.Sleep(2)
		wake = append(wake, p.Now())
	})
	e.Run()
	if len(wake) != 2 || wake[0] != 1 || wake[1] != 3 {
		t.Fatalf("wake = %v", wake)
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(1)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("length mismatch")
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("non-deterministic interleaving: %v vs %v", got, first)
				}
			}
		}
	}
	// Same sleep times: spawn order must decide.
	if first[0] != "a" || first[1] != "b" || first[2] != "c" {
		t.Fatalf("tie-break order = %v", first)
	}
}

func TestFutureAwait(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	var got Time = -1
	e.Spawn("waiter", func(p *Proc) {
		p.Await(f)
		got = p.Now()
	})
	e.At(7, func() { f.Complete(e) })
	e.Run()
	if got != 7 {
		t.Fatalf("waiter resumed at %v, want 7", got)
	}
	if !f.Done() {
		t.Fatal("future not done")
	}
}

func TestAwaitCompletedFutureIsImmediate(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	f.Complete(e)
	var got Time = -1
	e.Spawn("waiter", func(p *Proc) {
		p.Await(f) // must not block
		got = p.Now()
	})
	e.Run()
	if got != 0 {
		t.Fatalf("resumed at %v, want 0", got)
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	f.Complete(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double complete did not panic")
		}
	}()
	f.Complete(e)
}

func TestMultipleWaiterWakeOrder(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	var order []string
	for _, n := range []string{"x", "y", "z"} {
		n := n
		e.Spawn(n, func(p *Proc) {
			p.Await(f)
			order = append(order, n)
		})
	}
	e.At(1, func() { f.Complete(e) })
	e.Run()
	if len(order) != 3 || order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Fatalf("wake order = %v", order)
	}
}

func TestBlockedDetection(t *testing.T) {
	e := NewEngine()
	f := NewFuture() // never completed
	e.Spawn("stuck", func(p *Proc) { p.Await(f) })
	e.Spawn("fine", func(p *Proc) { p.Sleep(1) })
	e.Run()
	blocked := e.Blocked()
	if len(blocked) != 1 || blocked[0].Name() != "stuck" {
		t.Fatalf("blocked = %v", blocked)
	}
	e.Close() // release the stuck goroutine
	if len(e.Blocked()) != 0 {
		t.Fatal("Close left blocked procs")
	}
}

// TestCloseUnwindsProcesses: Close stops a blocked process by unwinding its
// body (deferred functions run, nothing after the block does), never starts
// a body that had not run yet, and is harmless to repeat.
func TestCloseUnwindsProcesses(t *testing.T) {
	e := NewEngine()
	f := NewFuture() // never completed
	var deferred, resumed, started bool
	e.Spawn("stuck", func(p *Proc) {
		defer func() { deferred = true }()
		p.Await(f)
		resumed = true
	})
	e.Run()
	e.Spawn("late", func(p *Proc) { started = true }) // spawned, never stepped
	e.Close()
	e.Close()
	if !deferred || resumed {
		t.Fatalf("blocked body: deferred ran = %v, code after the block ran = %v; want true, false", deferred, resumed)
	}
	if started {
		t.Fatal("Close started a process body that had never run")
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
				panic(killedError{"bad"}) // unwind cleanly through wrapper
			}
		}()
		p.Sleep(-1)
	})
	e.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

func TestProcChains(t *testing.T) {
	// A pipeline of processes passing a token via futures: total time must
	// be the sum of stage delays.
	e := NewEngine()
	const stages = 10
	futs := make([]*Future, stages+1)
	for i := range futs {
		futs[i] = NewFuture()
	}
	for i := 0; i < stages; i++ {
		i := i
		e.Spawn("stage", func(p *Proc) {
			p.Await(futs[i])
			p.Sleep(1.5)
			futs[i+1].Complete(e)
		})
	}
	e.At(0, func() { futs[0].Complete(e) })
	var end Time
	e.Spawn("sink", func(p *Proc) {
		p.Await(futs[stages])
		end = p.Now()
	})
	e.Run()
	if end != 15 {
		t.Fatalf("pipeline end = %v, want 15", end)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	e.After(1, step)
	b.ResetTimer()
	e.Run()
}

func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// TestProcPanicPropagatesToEngineCaller pins the panic-forwarding contract:
// a panic inside a process body must surface from Engine.Run in the caller's
// goroutine (where tests and the campaign harness can recover it), carrying
// the original panic value, instead of crashing the process from the
// unrecoverable proc goroutine.
func TestProcPanicPropagatesToEngineCaller(t *testing.T) {
	e := NewEngine()
	e.Spawn("healthy", func(p *Proc) { p.Sleep(5) })
	e.Spawn("buggy", func(p *Proc) {
		p.Sleep(1)
		panic("rank bug")
	})
	var recovered interface{}
	func() {
		defer func() { recovered = recover() }()
		e.Run()
		t.Error("Run returned instead of panicking")
	}()
	if recovered != "rank bug" {
		t.Fatalf("recovered %v, want the original panic value", recovered)
	}
}

// TestProcPanicAtStartPropagates covers the panic-before-first-block path.
func TestProcPanicAtStartPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("instant", func(p *Proc) { panic(42) })
	var recovered interface{}
	func() {
		defer func() { recovered = recover() }()
		e.Run()
	}()
	if recovered != 42 {
		t.Fatalf("recovered %v, want 42", recovered)
	}
}
