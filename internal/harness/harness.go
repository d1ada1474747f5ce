// Package harness is the campaign execution layer: every experiment,
// benchmark, and binary in this repo expresses its work as a *plan* — a
// slice of independent, seeded run specs plus a pure reduce step — and the
// harness executes the specs on a worker pool.
//
// The paper's methodology is running campaigns of simulations (policy ×
// scale × fault-config sweeps); each individual run is a deterministic
// virtual-time simulation, so runs are embarrassingly parallel. The harness
// exploits that while keeping the one property the reproduction depends on:
// results are merged in spec order, so parallel output is bit-for-bit
// identical to sequential output for any deterministic spec.
//
// Contract for specs:
//
//   - a spec must not share mutable state with other specs of the plan
//     (pre-split RNGs and pre-sampled inputs before fanning out);
//   - a spec's value must depend only on its inputs, never on execution
//     order or wall clock, if bit-identical parallel output is wanted
//     (wall-clock measuring specs such as Fig 7c opt out via Serial).
//
// Each run is wrapped with observability: wall-clock, DES events processed
// (reported by the spec through its Meter), and panic/timeout status are
// recorded per run; a Recorder aggregates them into a telemetry.Table that
// cmd/experiments can dump as an amrquery-compatible colfile.
package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Status classifies how a run ended.
type Status uint8

const (
	// StatusOK means the spec returned without error.
	StatusOK Status = iota
	// StatusErr means the spec returned an error.
	StatusErr
	// StatusPanic means the spec panicked; the panic was recovered into a
	// *PanicError.
	StatusPanic
	// StatusTimeout means the spec exceeded the plan's per-run timeout and
	// its result is discarded. A spec that honours Meter.Aborted (every
	// simulation does) stops at its next interrupt poll and tears its
	// machine down; one that does not keeps its goroutine until it returns.
	StatusTimeout
)

// String returns "ok", "err", "panic", or "timeout".
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusErr:
		return "err"
	case StatusPanic:
		return "panic"
	case StatusTimeout:
		return "timeout"
	}
	return "unknown"
}

// Meter is the per-run observability sink handed to every spec. Specs report
// domain counters (DES events processed, per-rank metadata bytes) through
// it; the harness fills in wall clock, heap, and status itself.
type Meter struct {
	events    int64
	rankBytes int64
	aborted   atomic.Bool
}

// Aborted reports whether the harness has given up on this run (its plan
// timeout expired). Long-running specs should poll it — every simulation
// wires it to its world's interrupt (driver.Config.Interrupt,
// mpi.World.SetInterrupt) — so a timed-out run stops promptly, unwinds its
// rank processes, and returns its goroutine.
func (m *Meter) Aborted() bool { return m.aborted.Load() }

// AddEvents accumulates DES events processed by this run.
func (m *Meter) AddEvents(n int64) { m.events += n }

// SetRankBytes records the largest per-rank metadata footprint (bytes) the
// run observed — the distributed-forest scaling metric driver runs report.
// Repeated calls keep the maximum; zero means the run does not track it.
func (m *Meter) SetRankBytes(n int64) {
	if n > m.rankBytes {
		m.rankBytes = n
	}
}

// Spec is one independent unit of work in a plan.
type Spec[T any] struct {
	// ID labels the run in progress lines and the metrics table.
	ID string
	// Run produces the spec's value. It runs on an arbitrary worker
	// goroutine; it must not touch state shared with other specs.
	Run func(m *Meter) (T, error)
}

// Result is the outcome of one spec, in spec order.
type Result[T any] struct {
	ID     string
	Value  T
	Err    error
	Status Status
	Wall   time.Duration
	Events int64
	// RankBytes is the largest per-rank metadata footprint the run reported
	// via Meter.SetRankBytes (0 when untracked).
	RankBytes int64
	// HeapMB is the process heap (MiB) right after the run completed.
	// Process-wide, so under parallel execution it is an upper bound on
	// this run's own footprint; 0 for timed-out runs.
	HeapMB float64
}

// PanicError wraps a recovered spec panic.
type PanicError struct {
	ID    string
	Value interface{}
	Stack []byte
}

// Error returns the panic value and the spec that raised it.
func (p *PanicError) Error() string {
	return fmt.Sprintf("harness: spec %q panicked: %v", p.ID, p.Value)
}

// PanicValue returns the recovered panic value, so callers (e.g.
// check.As) can inspect what the spec actually panicked with.
func (p *PanicError) PanicValue() interface{} { return p.Value }

// TimeoutError marks a run that exceeded the plan timeout.
type TimeoutError struct {
	ID    string
	Limit time.Duration
}

// Error returns the spec and the exceeded limit.
func (t *TimeoutError) Error() string {
	return fmt.Sprintf("harness: spec %q exceeded %v timeout", t.ID, t.Limit)
}

// Progress is one completion notification. Done counts completed runs (in
// completion order, not spec order); ID/Status/Wall describe the run that
// just finished.
type Progress struct {
	Campaign    string
	Done, Total int
	ID          string
	Status      Status
	Wall        time.Duration
}

// ProgressFunc observes run completions. It is called under the harness
// mutex (never concurrently) but from worker goroutines.
type ProgressFunc func(Progress)

// Exec bundles the execution knobs every campaign shares. The zero value
// runs with GOMAXPROCS workers, no timeout, no progress, no recording —
// experiment code passes it through from Options so one -j flag reaches
// every plan.
type Exec struct {
	// Workers is the fan-out width; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout is the per-run limit; 0 means none. On expiry the harness
	// moves on and raises Meter.Aborted: a spec that honours it (every
	// simulation does, through its world's interrupt) is torn down —
	// processes unwound, goroutine returned — within one interrupt poll. A
	// spec that never polls cannot be killed and runs on to its own end.
	Timeout time.Duration
	// Progress, when set, observes every run completion.
	Progress ProgressFunc
	// Recorder, when set, is the campaign ledger: it counts every run in as
	// it completes and records every campaign's rows when it ends (the -out
	// table, /statusz, the host_campaign_* series). Purely observational —
	// it never influences execution.
	Recorder *Recorder
}

// Serial returns a copy of e pinned to one worker. Campaigns that measure
// host wall clock inside specs (Fig 7c placement overhead, the §V-B solver
// budget) use it so concurrent runs don't contend and inflate each other's
// measurements.
func (e Exec) Serial() Exec {
	e.Workers = 1
	return e
}

// workers resolves the effective pool size for n specs.
func (e Exec) workers(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every spec of the campaign on a worker pool and returns the
// results in spec order. It never returns early: failed, panicked, and
// timed-out specs yield Results with a non-nil Err, and the remaining specs
// still run. Run itself blocks until all non-timed-out work has finished.
func Run[T any](e Exec, campaign string, specs []Spec[T]) []Result[T] {
	n := len(specs)
	results := make([]Result[T], n)
	if n == 0 {
		return results
	}
	var m mark
	if e.Recorder != nil {
		m = e.Recorder.begin(campaign, n)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for w := e.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(e.Timeout, specs[i])
				mu.Lock()
				done++
				if e.Recorder != nil {
					e.Recorder.observe(results[i].ID, results[i].Status, results[i].Wall)
				}
				if e.Progress != nil {
					e.Progress(Progress{
						Campaign: campaign, Done: done, Total: n,
						ID: results[i].ID, Status: results[i].Status,
						Wall: results[i].Wall,
					})
				}
				mu.Unlock()
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	if e.Recorder != nil {
		recordCampaign(e.Recorder, campaign, m, results)
	}
	return results
}

// runOne executes a single spec with panic recovery and the optional
// timeout. The spec always runs on its own goroutine; without a timeout the
// timer channel is nil and the select waits for the outcome alone.
func runOne[T any](timeout time.Duration, s Spec[T]) Result[T] {
	res := Result[T]{ID: s.ID}
	type outcome struct {
		value  T
		err    error
		status Status
		events int64
		rbytes int64
		heapMB float64
	}
	// The meter outlives the select: on timeout the abandoned run goroutine
	// keeps writing its counters, so the harness snapshots them into the
	// outcome before handing anything back and never touches m again.
	m := new(Meter)
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		var o outcome
		o.value, o.err, o.status = call(s, m)
		o.events, o.rbytes = m.events, m.rankBytes
		o.heapMB = heapMB()
		ch <- o
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case o := <-ch:
		res.Value, res.Err, res.Status = o.value, o.err, o.status
		res.Events, res.RankBytes, res.HeapMB = o.events, o.rbytes, o.heapMB
	case <-expired:
		// Signal the run to bail out at its next interrupt poll; specs that
		// honor Meter.Aborted tear down within one event window instead of
		// simulating to completion.
		m.aborted.Store(true)
		res.Err = &TimeoutError{ID: s.ID, Limit: timeout}
		res.Status = StatusTimeout
	}
	res.Wall = time.Since(start)
	return res
}

// heapMB reads the live process heap in MiB. Taken right after each run
// completes, it approximates the run's peak residency (the big sims dominate
// the heap while they execute).
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// call invokes the spec with panic recovery.
func call[T any](s Spec[T], m *Meter) (value T, err error, status Status) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{ID: s.ID, Value: r, Stack: debug.Stack()}
			status = StatusPanic
		}
	}()
	value, err = s.Run(m)
	if err != nil {
		status = StatusErr
	}
	return
}

// Values extracts the spec values in spec order, returning the first
// failure (error, panic, or timeout) if any run did not succeed. The error
// names the failed spec: PanicError and TimeoutError carry its id, and a
// spec's own error is wrapped with it (errors.Is still reaches the cause).
func Values[T any](results []Result[T]) ([]T, error) {
	out := make([]T, len(results))
	for i, r := range results {
		if r.Status == StatusErr {
			return nil, fmt.Errorf("harness: spec %q: %w", r.ID, r.Err)
		}
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Value
	}
	return out, nil
}
