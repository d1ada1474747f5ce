package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a runtime coroutine (iter.Pull) the engine
// resumes and the process body yields from. All Proc methods must be called
// from inside the function passed to Spawn.
type Proc struct {
	eng  *Engine
	name string

	// next resumes the body until its next block (or its end) and stop
	// unwinds it; yield is the body's side of the same switch. Control
	// strictly alternates between the engine caller and the body, and a
	// switch is a direct stack swap: it never enters the Go scheduler, wakes
	// no thread and parks nothing.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	lanes    int32 // index of the process's lanes in Engine.lanes
	finished bool
}

// killedError unwinds a process body terminated by Engine.Close.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: proc " + k.name + " killed" }

// Spawn creates a process running fn, scheduled to start at the current
// virtual time. fn runs as a coroutine under engine control.
//
// A panic inside fn surfaces from the engine caller's goroutine (Run/Step)
// with its original value, where tests and the campaign harness can recover
// it. The other processes stay suspended until Close unwinds them.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, lanes: int32(len(e.lanes))}
	e.lanes = append(e.lanes, procLanes{})
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	e.procs = append(e.procs, p)
	e.schedProc(e.now, p)
	return p
}

// exit is the body's deferred epilogue: it swallows the kill unwind and lets
// every other panic continue into iter.Pull, which re-raises it from next —
// past Step, so the engine's current process is cleared here.
func (p *Proc) exit() {
	p.finished = true
	p.eng.cur = nil
	if r := recover(); r != nil {
		if _, ok := r.(killedError); !ok {
			panic(r)
		}
	}
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// block hands control back to the engine and waits to be rescheduled. A
// false yield means Close stopped the coroutine: unwind the body.
func (p *Proc) block() {
	if !p.yield(struct{}{}) {
		panic(killedError{p.name})
	}
}

// Sleep advances this process by d virtual seconds. Negative d panics.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.eng.schedProc(p.eng.now+d, p)
	p.block()
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Await blocks until f completes. If f is already complete it returns
// immediately without yielding. A future has at most one waiter: awaiting
// one that already has a waiter panics, naming both processes.
func (p *Proc) Await(f *Future) {
	if f.done {
		return
	}
	if f.w != nil {
		panic(fmt.Sprintf("sim: proc %s awaits a future proc %s already awaits (one waiter per future)",
			p.name, f.w.name))
	}
	f.w = p
	p.block()
}

// Future is a one-shot completion signal one process can Await. The zero
// value is a pending future.
//
// Every future in the MPI runtime has exactly one waiter: a request is waited
// by the rank that posted it, and each rank blocks in a collective on its own
// future. An owner that pools futures may return one to pending with Reset
// once it has completed and its waiter has resumed.
type Future struct {
	done bool
	w    *Proc // the waiter, if any
}

// NewFuture returns a pending future.
func NewFuture() *Future { return &Future{} }

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// Complete marks the future done and schedules its waiter, if any, to resume
// at the current virtual time. Completing twice panics — it would indicate
// double delivery of a message.
func (f *Future) Complete(e *Engine) {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	if w := f.w; w != nil {
		f.w = nil
		e.schedProc(e.now, w)
	}
}

// Reset returns a completed future to pending so its owner can reuse it
// (the request/collective pools of the MPI runtime). Only safe after
// Complete has run and its waiter has resumed: resetting a pending future
// would strand its waiter, so that is a programming error and panics.
func (f *Future) Reset() {
	if f.w != nil {
		panic("sim: Reset of a pending future with a waiter")
	}
	f.done = false
}
