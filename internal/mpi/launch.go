// Launch and the world lifecycle: the one way product code builds and runs a
// simulated cluster. Which DES engine carries it is decided here and nowhere
// else; everything a caller does afterwards (Spawn, Run, Close, the setters)
// is the same call on either engine.
package mpi

import (
	"fmt"

	"amrtools/internal/check"
	"amrtools/internal/metrics"
	"amrtools/internal/sim"
	"amrtools/internal/simnet"
)

// machine is the lifecycle sim.Engine and sim.Shards share; the World
// forwards to whichever it was launched on.
type machine interface {
	Run() sim.Time
	Close()
	Now() sim.Time
	Events() int64
	Blocked() []*sim.Proc
	SetInterrupt(fn func() bool)
	SetMetrics(mx *metrics.SchedMetrics)
}

// Launch builds the simulated cluster cfg describes — engine(s), fabric and
// MPI world — and returns the world, ready for Spawn. shards == 0 selects
// the sequential engine; shards >= 1 the conservative parallel scheduler
// (sim.Shards) over min(shards, cfg.Nodes) contiguous node groups, each with
// its own event queue, advanced in lockstep lookahead windows bounded by
// cfg.Lookahead(); the scheduler forks the few windows a ghost exchange or a
// collective release just filled and runs the rest on the caller's goroutine,
// all of them on one P. Results are byte-identical for every shards >= 1 and
// any GOMAXPROCS, but differ from shards == 0 (DESIGN.md §10 lists the four
// sites where the engines differ). The caller owns the world: Close it on
// every path.
func Launch(cfg simnet.Config, shards int) *World {
	if shards <= 0 { // the sequential engine; DESIGN.md §10 on retiring it
		eng := sim.NewEngine()
		return NewWorld(eng, simnet.New(eng, cfg))
	}
	nsh := min(shards, cfg.Nodes)
	shardOfNode := make([]int32, cfg.Nodes)
	for nd := range shardOfNode {
		shardOfNode[nd] = int32(nd * nsh / cfg.Nodes)
	}
	s := sim.NewShards(nsh, cfg.Lookahead())
	return NewShardedWorld(s, simnet.NewSharded(s.Engines(), shardOfNode, cfg), shardOfNode)
}

// Run drives the machine until it drains. An interrupt (SetInterrupt) ends
// it with an error wrapping sim.ErrInterrupted, ranks left blocked with a
// deadlock error naming the first; any other panic out of a rank program
// propagates. A clean paranoid run ends with the teardown audits: MPI
// hygiene and census reconciliation, then full shm-queue release.
func (w *World) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != sim.ErrInterrupted {
				panic(r)
			}
			err = fmt.Errorf("mpi: %w", sim.ErrInterrupted)
		}
	}()
	w.mach.Run()
	if blocked := w.mach.Blocked(); len(blocked) > 0 {
		return fmt.Errorf("mpi: simulated deadlock, %d ranks blocked (first: %s)",
			len(blocked), blocked[0].Name())
	}
	if w.paranoid {
		w.AuditTeardown()
		w.net.AuditDrained()
	}
	return nil
}

// Close unwinds the rank processes still suspended. Closing twice is
// harmless; the world must not otherwise be used afterwards.
func (w *World) Close() { w.mach.Close() }

// Now returns the machine's virtual time — after Run, the makespan.
func (w *World) Now() sim.Time { return w.mach.Now() }

// Events returns the number of DES events executed so far.
func (w *World) Events() int64 { return w.mach.Events() }

// SetInterrupt installs a cancellation poll, checked every few thousand
// events on the sequential engine and once per window on the scheduler. fn
// races with whatever sets the underlying flag, so that flag must be atomic
// (harness.Meter.Aborted is).
func (w *World) SetInterrupt(fn func() bool) { w.mach.SetInterrupt(fn) }

// SetSchedMetrics attaches the run's host-plane scheduler instrument set:
// event-queue counts on either engine, window structure on the scheduler.
func (w *World) SetSchedMetrics(mx *metrics.SchedMetrics) { w.mach.SetMetrics(mx) }

// The two setters below reach the scheduler, which a world on the
// sequential engine does not have; their st != nil halves carry no semantics
// and go with the sequential engine (DESIGN.md §10).

// SetParanoid enables or disables the invariant audits of internal/check in
// every layer under the world: collective membership and teardown hygiene
// here, queue and NIC accounting in the fabric, stage-time window safety in
// the scheduler. The global check.Force override wins over an explicit
// false. Call before Spawn: send-request tracking only covers sends posted
// while paranoid.
func (w *World) SetParanoid(on bool) {
	w.paranoid = check.Enabled(on)
	w.net.SetParanoid(on)
	if st := w.shard; st != nil {
		st.s.SetParanoid(on)
	}
}

// OnMerge registers fn to run on the coordinator after each scheduler
// window, after the world's own collective merge, and reports whether the
// world has window merges at all: on the sequential engine it returns false
// and fn never runs.
func (w *World) OnMerge(fn func(horizon sim.Time)) bool {
	st := w.shard
	if st != nil {
		st.s.OnMerge(fn)
	}
	return st != nil
}
