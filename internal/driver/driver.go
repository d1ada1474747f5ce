// Package driver runs the end-to-end AMR simulation: a bulk-synchronous
// timestep loop over a refining mesh, executed by simulated MPI ranks, with
// telemetry-driven redistribution through pluggable placement policies.
//
// Each timestep mirrors the execution model of §II-A/§II-B:
//
//	pre-post ghost receives
//	per owned block: compute kernel → post boundary sends
//	  (sends interleave with compute when Config.SendsFirst, the §IV-B
//	   task-reordering optimization; otherwise all computes run first)
//	wait all receives, wait all sends
//	barrier (the global synchronization that exposes stragglers)
//
// Every LBInterval steps the mesh is re-tagged from the physics problem;
// when it changes, redistribution runs: measured per-block costs (EWMA over
// telemetry, §V-A3) feed the placement policy, blocks migrate, and the
// migration + placement time is charged to the rebalance phase.
package driver

import (
	"fmt"
	"time"

	"amrtools/internal/check"
	"amrtools/internal/cost"
	"amrtools/internal/health"
	"amrtools/internal/mesh"
	"amrtools/internal/metrics"
	"amrtools/internal/mpi"
	"amrtools/internal/physics"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/telemetry"
	"amrtools/internal/trace"
)

// Config parameterizes one simulation run.
type Config struct {
	// RootDims is the root-block grid (Table I: mesh size / block size,
	// e.g. 128³ cells with 16³ blocks → 8×8×8 roots).
	RootDims [3]int
	// MaxLevel is the deepest refinement level.
	MaxLevel int
	// Steps is the number of timesteps to simulate.
	Steps int
	// LBInterval is how often (in steps) refinement is evaluated; the
	// paper's codes trigger every 5 steps in the worst case.
	LBInterval int

	// SendsFirst interleaves each block's sends right after its compute
	// (tuned schedule); false models the untuned compute-then-send order.
	SendsFirst bool

	// UseMeasuredCosts feeds telemetry-measured block costs into the
	// placement policy (§V-A3 change 1); false leaves the framework
	// default of unit costs.
	UseMeasuredCosts bool
	// CostAlpha is the EWMA smoothing for measured costs.
	CostAlpha float64

	// Policy computes block→rank assignments at every redistribution.
	Policy placement.Policy
	// Problem drives refinement and block costs.
	Problem physics.Problem
	// Net describes the simulated cluster.
	Net simnet.Config

	// CollectSteps enables the per-step per-rank telemetry table.
	CollectSteps bool
	// CollectWaits enables the individual wait-event table (Fig 1b),
	// capped at 200 000 rows.
	CollectWaits bool

	// PlacementEvery recomputes placement on every k-th mesh change; in
	// between, new blocks inherit their parent's rank (the deferred
	// load-balancing question of Meta-Balancer, §VIII). 0 or 1 re-places
	// on every change (the paper's behaviour); a value larger than the
	// number of mesh changes never re-places at all.
	PlacementEvery int

	// Trace, when non-nil, enables the whole-run flight recorder
	// (internal/trace): every MPI operation and fabric pathology event is
	// recorded as a span into per-rank ring buffers bounded by
	// Trace.PerRankCap, and the run is bracketed by health probes emitted as
	// probe_pre/probe_post spans. Result.Spans holds the recorder. Nil means
	// tracing off — the disabled path is one nil check per emission site.
	Trace *trace.Config

	// Metrics, when non-nil, publishes the run's aggregate instrument
	// registry (internal/metrics): sim-plane counters/sums/histograms for
	// MPI traffic, fabric stalls, and migration volume (bit-identical
	// across Shards and harness workers) plus host-plane scheduler
	// instruments. Result.Metrics holds the populated set. Nil means no registry in Result.Metrics and no scheduler instruments;
	// the MPI and fabric lanes are the run's accounting and exist either
	// way, so setting this changes nothing else in the Result.
	Metrics *metrics.Config

	// Shards picks the DES engine the cluster is launched on (mpi.Launch):
	// 0 the sequential engine, >= 1 the conservative lookahead-window
	// scheduler over min(Shards, Net.Nodes) contiguous node groups, run on
	// the caller's goroutine. Results are byte-identical for every
	// Shards >= 1, but differ from the Shards == 0 default (fabric
	// randomness moves from one shared stream to per-node streams, and
	// same-time table rows order by rank instead of engine arrival).
	Shards int

	// Interrupt, when set, is polled during execution — every few thousand
	// events on the sequential engine, once per window on the sharded
	// scheduler. When it reports true the run aborts and Run returns an
	// error wrapping sim.ErrInterrupted. The poll races with whatever sets
	// the underlying flag, so that flag must be atomic (the campaign
	// harness's timeout abort uses this).
	Interrupt func() bool

	// Paranoid enables the runtime invariant audits of internal/check
	// through every layer of the run: collective-round membership (mpi),
	// shm-queue/NIC accounting (simnet), epoch and mesh consistency after
	// every redistribution (driver/mesh), and teardown hygiene (mailboxes,
	// receive queues, send requests, census reconciliation) at end of run.
	// A breached invariant panics with a structured check.Violation. Off by
	// default; tests force it on globally via check.Force.
	Paranoid bool
}

// DefaultConfig returns a tuned-environment configuration with one initial
// block per rank, Sedov physics, and the standard block geometry.
func DefaultConfig(rootDims [3]int, maxLevel, steps int, pol placement.Policy, seed uint64) Config {
	nranks := rootDims[0] * rootDims[1] * rootDims[2]
	ranksPerNode := 16
	nodes := nranks / ranksPerNode
	if nodes == 0 {
		nodes = 1
		ranksPerNode = nranks
	}
	return Config{
		RootDims:         rootDims,
		MaxLevel:         maxLevel,
		Steps:            steps,
		LBInterval:       5,
		SendsFirst:       true,
		UseMeasuredCosts: true,
		CostAlpha:        0.5,
		Policy:           pol,
		Problem:          physics.NewSedov(rootDims, steps, seed),
		Net:              simnet.Tuned(nodes, ranksPerNode, seed),
		CollectSteps:     true,
	}
}

// maxWaitEvents caps the wait-event table (Config.CollectWaits): an untuned
// fabric blocks in Wait millions of times, and Fig 1b needs the early ones.
const maxWaitEvents = 200_000

// placementCharge is the virtual time (seconds) each rank is charged per
// redistribution for computing the placement. It is a deterministic
// stand-in for the measured wall clock: that lands in Result.PlacementWall
// and never feeds back into simulated time. Every table and bench digest is
// computed at this value, which is why it is a constant and not a Config
// field.
const placementCharge = 2e-3

// costTimeScale converts problem cost units into seconds of compute. Like
// placementCharge, every table and bench digest is computed at this value.
const costTimeScale = 2e-3

// PhaseTotals aggregates per-phase times (mean over ranks, seconds).
type PhaseTotals struct {
	Compute, Comm, Sync, Rebalance float64
}

// Total returns the sum of all phases.
func (p PhaseTotals) Total() float64 { return p.Compute + p.Comm + p.Sync + p.Rebalance }

// Result is the outcome of a run.
type Result struct {
	// Steps is the per-step per-rank telemetry table (nil unless
	// CollectSteps): step, rank, node, compute, comm, sync, rebalance,
	// msgs_sent, bytes_sent, msgs_recvd.
	Steps *telemetry.Table
	// Waits is the wait-event table (nil unless CollectWaits): t, rank,
	// kind, dur.
	Waits *telemetry.Table
	// Phases are mean-over-ranks phase totals.
	Phases PhaseTotals
	// Makespan is the virtual end-to-end runtime.
	Makespan float64
	// Events is the number of DES events the engine processed — the
	// simulation-work metric the campaign harness records per run.
	Events int64
	// InitialBlocks/FinalBlocks bracket the mesh growth (Table I).
	InitialBlocks, FinalBlocks int
	// LBSteps counts redistributions performed (Table I's t_lb).
	LBSteps int
	// Census is the final message census.
	Census simnet.Census
	// PlacementWall records the real wall-clock duration of each placement
	// computation (Fig 7c).
	PlacementWall []time.Duration
	// Migrations is the total number of block moves across redistributions.
	Migrations int
	// BlockHistory is the leaf count after each redistribution.
	BlockHistory []int
	// Spans is the flight recorder (nil unless Config.Trace was set); its
	// Table() is the whole-run span stream for trace/diagnose, Perfetto
	// export, and critpath.FromSpans.
	Spans *trace.Recorder
	// Deltas aggregates the ownership-delta records exchanged at
	// redistributions — the distributed forest's only metadata traffic when
	// the mesh or placement changes.
	Deltas DeltaStats
	// MaxRankMetaBytes is the largest per-rank metadata footprint observed
	// across epochs: rank view + communication plan + directory shard. The
	// scale experiment's claim is that this stays flat as ranks (and with
	// them global blocks) grow.
	MaxRankMetaBytes int
	// PartitionBytes is the replicated SFC-partition splitter footprint,
	// O(nranks) and independent of global block count.
	PartitionBytes int
	// Metrics is the run's instrument set (nil unless Config.Metrics was
	// set). Snapshot it only after Run returns: sim-plane lanes are owned
	// by the engines while the simulation executes.
	Metrics *metrics.RunSet
}

// exchange is one directed boundary message between two blocks. Both
// endpoints derive tag, size, and peer independently from their local views;
// int32 fields keep 64k-rank plans compact.
type exchange struct {
	tag      int32
	from, to int32 // block global SFC indices
	peer     int32 // the remote rank (receiver for sends, sender for recvs)
	size     int32
}

// epoch is the immutable communication plan between redistributions.
// leafIDs and assign are the simulation substrate's ground truth (what the
// collective of ranks jointly knows); each rank's executable state is its
// rankPlan, built from its RankView alone. sends/recvs cover both ghost
// exchanges and flux-correction messages (fine block → coarser face
// neighbor): both carry previous-step data, so both dispatch at step start
// and are transfer-bound.
type epoch struct {
	leafIDs []mesh.BlockID
	assign  placement.Assignment
	plans   []rankPlan
	costs   []float64 // cost units used for this epoch's placement
}

// runState is the shared state rank 0 mutates at redistribution barriers.
// Every mutation happens inside the epoch protocol — ranks quiesce at the
// collective barrier before rank 0 touches it, and paranoid mode audits the
// handoff — so the mutation discipline is ownership transfer, not lanes.
type runState struct {
	cfg      Config
	paranoid bool // resolved Config.Paranoid || check.Forced()
	m        *mesh.Mesh
	rec      *cost.Recorder
	ep       *epoch
	// dir carries ownership across epochs for migration and inheritance:
	// the SFC-range-partitioned directory that replaces the replicated
	// global owner map of the pre-distributed design.
	dir       *ownerDirectory
	rebCharge []float64 // per-rank rebalance charge for this epoch
	// chargePending tells every rank whether the just-finished
	// redistribution changed the mesh (uniform across ranks, so the
	// conditional rebalance barrier below stays collective).
	chargePending bool
	res           *Result
	tracer        *trace.Recorder // nil unless Config.Trace
	// obs stages each rank's per-block cost observations until rank 0
	// replays them at the next redistribution (syncObservations).
	obs [][]obsRow
	// stage holds the per-rank step/wait row staging of a run on the
	// scheduler, flushed in (step, rank) / (t, rank) order at window merges;
	// nil on the sequential engine, whose rows append in engine order. See
	// shardstage.go.
	stage *shardStage

	// meshChanges counts redistributions that changed the mesh, for the
	// PlacementEvery deferral.
	meshChanges int
}

// Run executes the simulation and returns its results.
func Run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	world := mpi.Launch(cfg.Net, cfg.Shards)
	// Every exit — success, interrupt, simulated deadlock, a panic out of a
	// rank program or a policy — unwinds the rank processes still suspended.
	defer world.Close()
	net := world.Net()
	nranks := world.NumRanks()
	paranoid := check.Enabled(cfg.Paranoid)
	world.SetParanoid(paranoid)
	world.SetInterrupt(cfg.Interrupt)

	st := &runState{
		cfg:       cfg,
		paranoid:  paranoid,
		m:         mesh.NewUniform(cfg.RootDims[0], cfg.RootDims[1], cfg.RootDims[2], cfg.MaxLevel),
		rec:       cost.NewRecorder(cfg.CostAlpha),
		rebCharge: make([]float64, nranks),
		res:       &Result{},
		obs:       make([][]obsRow, nranks),
	}
	if cfg.Metrics != nil {
		ms := metrics.NewRunSet(nranks, cfg.Net.Nodes, nil)
		st.res.Metrics = ms
		world.SetMetrics(ms.MPI)
		net.SetMetrics(ms.Net)
		world.SetSchedMetrics(ms.Sched)
	}
	st.res.InitialBlocks = st.m.NumLeaves()
	// Engine-dependent site 4 of 4 (step/wait row order; DESIGN.md §10): on
	// the scheduler rows stage per rank and flush at window merges — after
	// the world's own collective merge, so rows staged before a barrier
	// flush in the merge that releases it.
	if world.OnMerge(st.flushStage) {
		st.stage = newShardStage(nranks)
	}

	if cfg.Trace != nil {
		st.tracer = trace.NewRecorder(nranks, cfg.Net.RanksPerNode, *cfg.Trace)
		st.res.Spans = st.tracer
		world.SetTracer(st.tracer)
		net.SetTracer(st.tracer)
		// Pre-run health probe (§IV-A): per-node worst-rank kernel time,
		// carried in the span stream so the diagnosis report can cross-check
		// throttling findings and compute pre/post drift. EmitRaw bypasses
		// the arming gate — probe span count is bounded by construction.
		emitProbes(st.tracer, cfg.Net, trace.ProbePre, 0)
	}

	// Initial placement: the framework default of unit costs (telemetry
	// has seen nothing yet).
	st.buildEpoch(unitCosts(st.m.NumLeaves()), nranks, true)

	if cfg.CollectSteps {
		st.res.Steps = telemetry.NewTable(
			telemetry.IntCol("step"), telemetry.IntCol("rank"), telemetry.IntCol("node"),
			telemetry.FloatCol("compute"), telemetry.FloatCol("comm"),
			telemetry.FloatCol("sync"), telemetry.FloatCol("rebalance"),
			telemetry.IntCol("msgs_sent"), telemetry.IntCol("bytes_sent"),
			telemetry.IntCol("msgs_recvd"),
		)
	}
	if cfg.CollectWaits {
		st.res.Waits = telemetry.NewTable(
			telemetry.FloatCol("t"), telemetry.IntCol("rank"),
			telemetry.StrCol("kind"), telemetry.FloatCol("dur"),
		)
	}

	for r := 0; r < nranks; r++ {
		world.Spawn(r, func(c *mpi.Comm) { st.rankProgram(c, world) })
	}
	// Run ends with the teardown audits when paranoid: MPI hygiene and
	// census reconciliation, then full shm-queue release at engine drain.
	if err := world.Run(); err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	st.res.Makespan = world.Now()
	st.res.Events = world.Events()
	if st.tracer != nil {
		// Post-run probe of the same nodes, placed after the run on the
		// virtual timeline.
		emitProbes(st.tracer, cfg.Net, trace.ProbePost, st.res.Makespan)
	}
	st.res.FinalBlocks = st.m.NumLeaves()
	st.res.Census = net.CensusTotal()
	// Mean-over-ranks phase totals: each Sum folds its lanes in rank order.
	mx, n := world.Metrics(), float64(nranks)
	st.res.Phases = PhaseTotals{
		Compute: mx.Compute.Total() / n, Comm: mx.CommWait.Total() / n,
		Sync: mx.Sync.Total() / n, Rebalance: mx.Rebalance.Total() / n,
	}
	if ms := st.res.Metrics; ms != nil {
		// The driver's instruments are whole-run totals of quantities the
		// Result already carries: filled once here, counted nowhere else.
		res, d := st.res, ms.Drv
		d.Epochs.Add(0, int64(len(res.BlockHistory)))
		d.MigratedBlocks.Add(0, int64(res.Migrations))
		d.MigratedBytes.Add(0, int64(res.Migrations)*blockBytes)
		d.DirHandoffs.Add(0, int64(res.Deltas.Handoffs))
		d.DirInstalls.Add(0, int64(res.Deltas.Installs))
		d.Steps.Add(0, int64(cfg.Steps)*int64(nranks))
	}
	return st.res, nil
}

func validate(cfg *Config) error {
	switch {
	case cfg.RootDims[0] <= 0 || cfg.RootDims[1] <= 0 || cfg.RootDims[2] <= 0:
		return fmt.Errorf("driver: invalid root dims %v", cfg.RootDims)
	case cfg.Steps <= 0:
		return fmt.Errorf("driver: non-positive steps %d", cfg.Steps)
	case cfg.Policy == nil:
		return fmt.Errorf("driver: nil policy")
	case cfg.Problem == nil:
		return fmt.Errorf("driver: nil problem")
	case cfg.Net.Nodes <= 0 || cfg.Net.RanksPerNode <= 0:
		return fmt.Errorf("driver: invalid network config")
	case cfg.LBInterval <= 0:
		return fmt.Errorf("driver: non-positive LB interval %d", cfg.LBInterval)
	case cfg.CostAlpha <= 0 || cfg.CostAlpha > 1:
		return fmt.Errorf("driver: cost EWMA alpha %v outside (0, 1]", cfg.CostAlpha)
	case cfg.Trace != nil && cfg.Trace.ArmOn != nil && !cfg.CollectSteps:
		return fmt.Errorf("driver: Trace.ArmOn requires CollectSteps (the trigger reads per-step telemetry)")
	}
	return nil
}

// emitProbes runs the health-probe kernel over the run's cluster and records
// one span per node (rank = the node's first rank, duration = worst-rank
// kernel time) at virtual time t0, outside the timestep loop (step and epoch
// -1).
func emitProbes(tr *trace.Recorder, net simnet.Config, kind trace.Kind, t0 float64) {
	for _, p := range health.ProbeNodes(net) {
		tr.EmitRaw(trace.Span{Rank: int32(p.Node * net.RanksPerNode), Kind: kind,
			T0: t0, T1: t0 + p.KernelTime, Peer: -1, Tag: -1, Step: -1, Epoch: -1})
	}
}

func unitCosts(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Block geometry, the same for every run (Table I): 16³-cell blocks
// carrying 9 physics variables (GRMHD-scale, as in Phoebus) with 2-deep
// ghost zones, 8 B per value. Every message size derives from it.
const (
	blockCells = 16
	nVars      = 9
	ghostDepth = 2
	valueBytes = 8

	// blockBytes is the state one migrating block carries.
	blockBytes = blockCells * blockCells * blockCells * nVars * valueBytes
	// fluxBytes is one flux-correction message (§II-B): a fine block's face
	// fluxes restricted to the coarser neighbor's resolution, half the cells
	// along each face axis.
	fluxBytes = (blockCells / 2) * (blockCells / 2) * nVars * valueBytes
)

// MessageSizes returns [face, edge, vertex] boundary-message bytes: ghost
// slabs of the block surface scaled by variable count (§II-B: volume depends
// on variables and neighbor type, not refinement level).
func MessageSizes() [3]int {
	c, g, v := blockCells, ghostDepth, nVars*valueBytes
	return [3]int{
		c * c * g * v, // face: cells² × depth
		c * g * g * v, // edge: cells × depth²
		g * g * g * v, // vertex: depth³
	}
}

// buildEpoch computes the placement for the current mesh and rebuilds the
// communication plan. initial=true skips wall-clock recording.
func (st *runState) buildEpoch(costs []float64, nranks int, initial bool) {
	start := time.Now() //lint:ignore determinism telemetry-only: PlacementWall records the host-side cost of the placement call and never feeds back into simulated time
	assign := st.cfg.Policy.Assign(costs, nranks)
	wall := time.Since(start) //lint:ignore determinism telemetry-only: paired with the time.Now above; result lands in Result.PlacementWall only
	if !initial {
		st.res.PlacementWall = append(st.res.PlacementWall, wall)
	}
	st.buildEpochWith(assign, costs, nranks, initial)
}

// inheritAssignment maps every current leaf to its previous owner through
// the ownership directory: surviving blocks resolve exactly, refined blocks
// inherit their nearest surviving ancestor, coarsened blocks the majority
// owner of their children, and rank 0 as a last resort.
func (st *runState) inheritAssignment(leaves []*mesh.Block, nranks int) placement.Assignment {
	assign := make(placement.Assignment, len(leaves))
	for i, b := range leaves {
		owner, ok := st.dir.inherit(b.ID)
		if !ok || owner < 0 || owner >= nranks {
			owner = 0
		}
		assign[i] = owner
	}
	return assign
}

// buildEpochWith rebuilds the communication plan for a given assignment:
// ownership deltas against the previous directory, per-rank views, per-rank
// plans, and the new directory, in that order.
func (st *runState) buildEpochWith(assign placement.Assignment, costs []float64, nranks int, initial bool) {
	leaves := st.m.Leaves()
	n := len(leaves)
	if err := placement.Validate(assign, n, nranks); err != nil {
		check.Failf("placement", "assignment-valid",
			"policy %s produced invalid assignment: %v", st.cfg.Policy.Name(), err)
	}
	checkTagCapacity(n)

	ep := &epoch{
		leafIDs: make([]mesh.BlockID, n),
		assign:  assign,
		costs:   costs,
	}
	for i, b := range leaves {
		ep.leafIDs[i] = b.ID
	}

	// Ownership deltas: a block whose inherited previous owner differs from
	// its new owner is one handoff record old → new, and its state migrates.
	// Each moved block costs blockBytes, priced at the path it actually
	// crosses: intra-node moves ride shared memory, only inter-node moves
	// pay the fabric — charging everything at remote rates overstated the
	// rebalance cost of exactly the locality-preserving policies the
	// PlacementEvery/Fig 6 comparisons are about.
	migTime := make([]float64, nranks)
	oldDir := st.dir
	if oldDir != nil {
		rpn := st.cfg.Net.RanksPerNode
		for i, id := range ep.leafIDs {
			old, ok := oldDir.inherit(id)
			if ok && old != assign[i] && old >= 0 && old < nranks {
				st.res.Migrations++
				st.res.Deltas.Handoffs++
				bw := st.cfg.Net.RemoteBandwidth
				if old/rpn == assign[i]/rpn {
					bw = st.cfg.Net.LocalBandwidth
				}
				t := float64(blockBytes) / bw
				migTime[old] += t
				migTime[assign[i]] += t
			}
		}
	}
	for r := 0; r < nranks; r++ {
		st.rebCharge[r] = placementCharge + migTime[r]
	}

	// Distributed views and per-rank plans: each rank's plan derives from
	// its RankView alone (owned blocks + halo), with message tags both
	// endpoints compute independently. The view build is the substrate pass
	// standing in for a real code's neighborhood exchange.
	views := st.m.BuildRankViews(assign, nranks)
	sizes := MessageSizes()
	ep.plans = make([]rankPlan, nranks)
	for r := 0; r < nranks; r++ {
		ep.plans[r] = buildRankPlan(views[r], sizes, fluxBytes)
	}

	// New ownership directory, and the install records pushing each block's
	// (key, level, owner) entry to its home rank under the new partition.
	st.dir = buildDirectory(st.m.Geometry(), ep.leafIDs, assign, nranks)
	if oldDir != nil {
		st.res.Deltas.Installs += countInstalls(st.dir)
	}

	// Metadata telemetry: the largest per-rank footprint this epoch, and
	// the replicated partition size.
	if pb := st.dir.part.Bytes(); pb > st.res.PartitionBytes {
		st.res.PartitionBytes = pb
	}
	for r := 0; r < nranks; r++ {
		b := views[r].Bytes() + ep.plans[r].planBytes() + st.dir.shardBytes(r)
		if b > st.res.MaxRankMetaBytes {
			st.res.MaxRankMetaBytes = b
		}
	}

	if st.paranoid {
		st.auditEpoch(ep, costs, nranks, oldDir)
	}
	st.ep = ep
	st.res.BlockHistory = append(st.res.BlockHistory, n)
}

// redistribute re-tags the mesh from the physics problem and, if it changed,
// recomputes placement from (measured or unit) costs. Called by rank 0 only,
// between barriers, at zero virtual cost (the virtual charge is applied by
// every rank afterwards).
func (st *runState) redistribute(step, nranks int) {
	st.syncObservations()
	refined := st.m.RefineOnce(func(id mesh.BlockID) bool { return st.cfg.Problem.WantRefine(id, step) })
	coarsened := st.m.CoarsenWhere(func(id mesh.BlockID) bool { return st.cfg.Problem.WantCoarsen(id, step) })
	if refined == 0 && coarsened == 0 {
		st.chargePending = false
		return
	}
	st.chargePending = true
	st.res.LBSteps++
	st.meshChanges++
	leaves := st.m.Leaves()
	if st.cfg.PlacementEvery > 1 && st.meshChanges%st.cfg.PlacementEvery != 0 {
		// Deferred load balancing: keep ownership, let new blocks inherit
		// their parent's rank, rebuild only the communication plan.
		st.buildEpochWith(st.inheritAssignment(leaves, nranks), unitCosts(len(leaves)), nranks, false)
	} else {
		var costs []float64
		if st.cfg.UseMeasuredCosts {
			// Gather per-rank cost views (each rank reports only the blocks
			// it holds by delta inheritance) into the SFC-ordered vector.
			costs = st.gatherCostViews(leaves, nranks)
		} else {
			costs = unitCosts(len(leaves))
		}
		st.buildEpoch(costs, nranks, false)
	}
	// Bound recorder memory to live blocks (+ their parents via fallback).
	keep := make(map[mesh.BlockID]bool, len(leaves))
	for _, b := range leaves {
		keep[b.ID] = true
		id := b.ID
		for id.Level > 0 {
			id = id.Parent()
			keep[id] = true
		}
	}
	st.rec.Forget(keep)
}

// rankProgram is the per-rank BSP loop.
func (st *runState) rankProgram(c *mpi.Comm, world *mpi.World) {
	rank := c.Rank()
	nranks := world.NumRanks()
	var prev mpi.Meter // the rank's accounting at the end of the previous step
	// The step's requests, in slices reused across steps: Wait recycles the
	// requests themselves, these only hold them until then.
	var recvReqs, sendReqs []*mpi.Request
	for step := 0; step < st.cfg.Steps; step++ {
		ep := st.ep
		plan := &ep.plans[rank]
		if st.tracer != nil {
			// Stamp this rank's spans with the step and the current epoch
			// (redistributions happen between barriers, so every rank sees a
			// consistent BlockHistory length here).
			st.tracer.SetPhase(rank, int32(step), int32(len(st.res.BlockHistory)-1))
		}
		// Boundary exchange carries the previous step's block state, so
		// sends are ready the moment the step begins. Pre-post every ghost
		// receive. The rank executes purely from its own plan: peers and
		// tags were derived from its local view, never a global table.
		recvReqs = recvReqs[:0]
		for _, e := range plan.recvs {
			recvReqs = append(recvReqs, c.Irecv(int(e.peer), int(e.tag)))
		}
		sendReqs = sendReqs[:0]
		postSends := func() {
			for _, e := range plan.sends {
				sendReqs = append(sendReqs, c.Isend(int(e.peer), int(e.tag), int(e.size)))
			}
			for i := 0; i < plan.intra; i++ {
				c.IntraRank()
			}
		}
		compute := func() {
			for _, lb := range plan.view.Owned {
				dur := c.Compute(st.cfg.Problem.Cost(lb.ID, step) * costTimeScale)
				st.observe(rank, lb.ID, dur/costTimeScale)
			}
		}
		if st.cfg.SendsFirst {
			// Tuned schedule (§IV-B): sends dispatch immediately, so
			// neighbors' ghost waits are transfer-bound only.
			postSends()
			st.waitAll(c, recvReqs, mpi.WaitRecv)
			compute()
		} else {
			// Untuned schedule: send tasks sit behind compute tasks, so a
			// neighbor's ghost wait absorbs this rank's entire compute
			// time — the cascading delays of Fig 3 (left).
			compute()
			postSends()
			st.waitAll(c, recvReqs, mpi.WaitRecv)
		}
		st.waitAll(c, sendReqs, mpi.WaitSend)

		// Global synchronization, then step telemetry: the meter snapshot
		// is taken after the barrier so this step's record includes its
		// sync wait.
		c.Barrier()
		if st.res.Steps != nil {
			m := world.Meter(rank)
			// Site 4, step rows (DESIGN.md §10): staged on the scheduler, else
			// appended in engine order.
			if sg := st.stage; sg != nil {
				sg.steps[rank] = append(sg.steps[rank], stepRow{
					step: step, node: world.Net().NodeOf(rank),
					compute: m.Compute - prev.Compute, comm: m.CommWait - prev.CommWait,
					sync: m.Sync - prev.Sync, rebalance: m.Rebalance - prev.Rebalance,
					msgsSent: m.MsgsSent - prev.MsgsSent, bytesSent: m.BytesSent - prev.BytesSent,
					msgsRecvd: m.MsgsRecvd - prev.MsgsRecvd,
				})
			} else {
				st.res.Steps.Append(
					step, rank, world.Net().NodeOf(rank),
					m.Compute-prev.Compute, m.CommWait-prev.CommWait,
					m.Sync-prev.Sync, m.Rebalance-prev.Rebalance,
					m.MsgsSent-prev.MsgsSent, m.BytesSent-prev.BytesSent,
					m.MsgsRecvd-prev.MsgsRecvd,
				)
				st.stepRecorded()
			}
			prev = m
		}

		// Redistribution window.
		if (step+1)%st.cfg.LBInterval == 0 && step+1 < st.cfg.Steps {
			if rank == 0 {
				st.redistribute(step+1, nranks)
			}
			c.Barrier() // publish the new epoch before anyone reads it
			if st.chargePending {
				c.ChargeRebalance(st.rebCharge[rank])
				c.Barrier() // migration is collective in the codes we model
			}
		}
	}
}

// stepRecorded reports the step-table row just appended; both engines' row
// sites call it (the sequential step loop and the scheduler's flushSteps).
// While the recorder is disarmed — which it starts as exactly when
// Trace.ArmOn is set — it evaluates ArmOn and arms on the first match (the
// §IV-C programmable trigger).
func (st *runState) stepRecorded() {
	row := st.res.Steps.NumRows() - 1
	if tr := st.tracer; tr != nil && !tr.Armed() && st.cfg.Trace.ArmOn(st.res.Steps, row) {
		tr.Arm()
	}
}
