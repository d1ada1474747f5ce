package driver

import (
	"testing"

	"amrtools/internal/cost"
	"amrtools/internal/critpath"
	"amrtools/internal/mesh"
	"amrtools/internal/metrics"
	"amrtools/internal/mpi"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/trace"
)

// smallConfig is a quick 64-rank Sedov run.
func smallConfig(pol placement.Policy, steps int, seed uint64) Config {
	cfg := DefaultConfig([3]int{4, 4, 4}, 2, steps, pol, seed)
	cfg.Net = simnet.Tuned(4, 16, seed)
	return cfg
}

func TestRunBaselineCompletes(t *testing.T) {
	res, err := Run(smallConfig(placement.Baseline{}, 15, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if res.Phases.Compute <= 0 || res.Phases.Sync < 0 {
		t.Fatalf("phases = %+v", res.Phases)
	}
	if res.InitialBlocks != 64 {
		t.Fatalf("initial blocks = %d", res.InitialBlocks)
	}
	if res.FinalBlocks < res.InitialBlocks {
		t.Fatalf("mesh shrank: %d -> %d", res.InitialBlocks, res.FinalBlocks)
	}
	if res.Steps == nil {
		t.Fatal("no step table")
	}
	if res.Steps.NumRows() != 15*64 {
		t.Fatalf("step rows = %d, want %d", res.Steps.NumRows(), 15*64)
	}
}

func TestRunRefinementGrowsBlocks(t *testing.T) {
	res, err := Run(smallConfig(placement.Baseline{}, 25, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.LBSteps == 0 {
		t.Fatal("no load-balancing invocations over 25 steps")
	}
	if res.FinalBlocks <= res.InitialBlocks {
		t.Fatalf("Sedov did not grow the mesh: %d -> %d", res.InitialBlocks, res.FinalBlocks)
	}
	if len(res.BlockHistory) < 2 {
		t.Fatalf("block history = %v", res.BlockHistory)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallConfig(placement.CPLX{X: 50}, 12, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(placement.CPLX{X: 50}, 12, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("non-deterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.Census != b.Census {
		t.Fatalf("non-deterministic census: %+v vs %+v", a.Census, b.Census)
	}
	if a.Migrations != b.Migrations {
		t.Fatalf("non-deterministic migrations: %d vs %d", a.Migrations, b.Migrations)
	}
}

func TestAllPoliciesComplete(t *testing.T) {
	for _, pol := range placement.StandardSuite(0) {
		res, err := Run(smallConfig(pol, 12, 3))
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: zero makespan", pol.Name())
		}
	}
}

func TestLoadBalancingReducesSync(t *testing.T) {
	// With measured costs and the Sedov front concentrated on few ranks,
	// LPT must cut synchronization time versus the baseline.
	base, err := Run(smallConfig(placement.Baseline{}, 30, 11))
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := Run(smallConfig(placement.LPT{}, 30, 11))
	if err != nil {
		t.Fatal(err)
	}
	if lpt.Phases.Sync >= base.Phases.Sync {
		t.Fatalf("LPT sync %.4f not below baseline %.4f", lpt.Phases.Sync, base.Phases.Sync)
	}
	// Compute work is invariant to placement (paper Finding 2) within
	// jitter noise.
	rel := lpt.Phases.Compute / base.Phases.Compute
	if rel < 0.9 || rel > 1.1 {
		t.Fatalf("compute changed with placement: ratio %.3f", rel)
	}
}

func TestLocalityAffectsRemoteMessages(t *testing.T) {
	// CPL0 (contiguous CDP) must route more messages locally than CPL100
	// (pure LPT) — Fig 6c's mechanism.
	cpl0, err := Run(smallConfig(placement.CPLX{X: 0}, 20, 13))
	if err != nil {
		t.Fatal(err)
	}
	cpl100, err := Run(smallConfig(placement.CPLX{X: 100}, 20, 13))
	if err != nil {
		t.Fatal(err)
	}
	frac := func(c simnet.Census) float64 {
		return float64(c.RemoteMsgs) / float64(c.RemoteMsgs+c.LocalMsgs+c.IntraRank)
	}
	if frac(cpl100.Census) <= frac(cpl0.Census) {
		t.Fatalf("LPT remote fraction %.3f not above CDP %.3f",
			frac(cpl100.Census), frac(cpl0.Census))
	}
}

func TestUntunedEnvironmentIsNoisier(t *testing.T) {
	// The untuned stack (small shm queue, exposed ACK recovery) must
	// produce more comm-wait time than the tuned stack.
	mk := func(tuned bool) Config {
		cfg := smallConfig(placement.Baseline{}, 15, 17)
		if !tuned {
			cfg.Net = simnet.Untuned(4, 16, 17)
			cfg.SendsFirst = false
		}
		return cfg
	}
	tuned, err := Run(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	untuned, err := Run(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	if untuned.Phases.Comm <= tuned.Phases.Comm {
		t.Fatalf("untuned comm %.5f not above tuned %.5f", untuned.Phases.Comm, tuned.Phases.Comm)
	}
	if untuned.Census.AckStalls == 0 {
		t.Fatal("untuned run saw no ACK stalls")
	}
	if tuned.Census.AckStalls != 0 {
		t.Fatal("tuned run saw ACK stalls despite drain queue")
	}
}

func TestThrottledNodeInflatesComputeAndSync(t *testing.T) {
	cfg := smallConfig(placement.Baseline{}, 10, 19)
	cfg.Net.ThrottledNodes = map[int]float64{1: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per-rank compute from the step table: node 1's ranks ~4× others.
	st := res.Steps
	perNode := st.GroupBy([]string{"node"}, nil)
	_ = perNode
	var healthy, throttled float64
	for r := 0; r < st.NumRows(); r++ {
		node := st.Ints("node")[r]
		if node == 1 {
			throttled += st.Floats("compute")[r]
		} else {
			healthy += st.Floats("compute")[r]
		}
	}
	healthy /= 3 // three healthy nodes
	if throttled < 2.5*healthy {
		t.Fatalf("throttled node compute %.4f not ~4x healthy %.4f", throttled, healthy)
	}
	// Healthy ranks must absorb the straggler in sync time: sync should be
	// a large share of total on healthy nodes.
	if res.Phases.Sync < res.Phases.Compute*0.5 {
		t.Fatalf("sync %.4f too small next to compute %.4f under throttling",
			res.Phases.Sync, res.Phases.Compute)
	}
}

func TestWaitEventCollection(t *testing.T) {
	cfg := smallConfig(placement.Baseline{}, 8, 23)
	cfg.Net = simnet.Untuned(4, 16, 23)
	cfg.CollectWaits = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Waits == nil || res.Waits.NumRows() == 0 {
		t.Fatal("no wait events collected")
	}
	if res.Waits.NumRows() > maxWaitEvents {
		t.Fatalf("wait cap exceeded: %d", res.Waits.NumRows())
	}

	// The cap itself, on the one append both engines' wait rows go through:
	// row maxWaitEvents is kept, the next one is dropped.
	for res.Waits.NumRows() < maxWaitEvents-1 {
		res.Waits.Append(0.0, 0, "recv", 0.0)
	}
	st := &runState{res: res}
	if !st.appendWait(1, 0, mpi.WaitSend, 0) || st.appendWait(2, 0, mpi.WaitSend, 0) {
		t.Fatal("appendWait does not stop at exactly maxWaitEvents rows")
	}
	if res.Waits.NumRows() != maxWaitEvents {
		t.Fatalf("table holds %d rows, want the cap %d", res.Waits.NumRows(), maxWaitEvents)
	}
}

// TestWaitTableObservesSpikes: on the untuned fabric the ACK-recovery path
// stretches sender-buffer release to milliseconds (§IV-B), and the wait table
// must show it as send-wait rows above the recovery floor. The rows are the
// driver's own timing of the waits that block, so there must be exactly one
// per blocked wait the MPI lanes counted, on either engine.
func TestWaitTableObservesSpikes(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := smallConfig(placement.Baseline{}, 8, 31)
		cfg.Net = simnet.Untuned(4, 16, 31)
		cfg.SendsFirst = false
		cfg.CollectWaits = true
		cfg.Metrics = &metrics.Config{}
		cfg.Shards = shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Census.AckStalls == 0 {
			t.Fatalf("shards=%d: untuned run saw no ACK stalls", shards)
		}
		w := res.Waits
		if got, want := int64(w.NumRows()), res.Metrics.MPI.Waits.Total(); got != want {
			t.Fatalf("shards=%d: %d wait rows, the MPI lanes counted %d blocked waits", shards, got, want)
		}
		spikes := 0
		for r := 0; r < w.NumRows(); r++ {
			dur := w.Floats("dur")[r]
			if dur <= 0 {
				t.Fatalf("shards=%d row %d: a blocked wait of %v s", shards, r, dur)
			}
			if w.ValueAt("kind", r) == "send" && dur >= 0.4*cfg.Net.AckRecoveryDelay {
				spikes++
			}
		}
		if spikes == 0 {
			t.Fatalf("shards=%d: no send wait reaches the ACK-recovery floor %v s", shards, 0.4*cfg.Net.AckRecoveryDelay)
		}
	}
}

func TestMigrationsTracked(t *testing.T) {
	res, err := Run(smallConfig(placement.LPT{}, 25, 29))
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations across refinements under LPT")
	}
	if len(res.PlacementWall) != res.LBSteps {
		t.Fatalf("placement wall times %d != lb steps %d", len(res.PlacementWall), res.LBSteps)
	}
}

func TestValidationErrors(t *testing.T) {
	good := smallConfig(placement.Baseline{}, 5, 1)
	cases := []func(*Config){
		func(c *Config) { c.RootDims = [3]int{0, 1, 1} },
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Problem = nil },
		func(c *Config) { c.Net.Nodes = 0 },
		func(c *Config) { c.CostAlpha = 0 },
		func(c *Config) { c.CostAlpha = 1.5 },
		func(c *Config) { c.LBInterval = 0 },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStepTableConservation(t *testing.T) {
	// Sum of per-step phase deltas must equal the final phase totals.
	res, err := Run(smallConfig(placement.CPLX{X: 25}, 10, 31))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Steps
	nranks := 64.0
	var sum float64
	for _, v := range st.Floats("compute") {
		sum += v
	}
	if got := sum / nranks; got > res.Phases.Compute+1e-9 {
		t.Fatalf("step-table compute %v exceeds total %v", got, res.Phases.Compute)
	}
	// Compute is fully attributed to steps (no compute outside the loop).
	if got := sum / nranks; got < res.Phases.Compute-1e-9 {
		t.Fatalf("step-table compute %v below total %v", got, res.Phases.Compute)
	}
}

func BenchmarkSedov64Ranks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(smallConfig(placement.CPLX{X: 50}, 10, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTraceWindowExtraction rebuilds one step's synchronization window from
// the flight recorder. The pinned numbers are what the driver's former
// in-line task tracer recorded for this configuration.
func TestTraceWindowExtraction(t *testing.T) {
	cfg := smallConfig(placement.Baseline{}, 8, 37)
	cfg.Trace = &trace.Config{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Spans.Dropped(); d != 0 {
		t.Fatalf("ring evicted %d spans; the window would be truncated", d)
	}
	tr, err := critpath.FromSpans(res.Spans.Table(), 3)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[critpath.Kind]int{}
	for id := 0; id < tr.Len(); id++ {
		kinds[tr.Task(id).Kind]++
	}
	// 64 ranks, one block each at step 3: a compute and a ghost wait per
	// rank, a post per boundary message.
	if kinds[critpath.Compute] != 64 || kinds[critpath.Wait] != 64 || kinds[critpath.Post] != 936 {
		t.Fatalf("window tasks by kind = %v", kinds)
	}
	result := tr.Analyze()
	if result.Makespan != 0.09613948671078512 || result.WaitOnPath != 0.00020835200000046683 || len(result.Path) != 19 {
		t.Fatalf("critical path moved: makespan %v, wait on path %v, %d tasks",
			result.Makespan, result.WaitOnPath, len(result.Path))
	}
	// One ghost-exchange round per window: the two-rank principle of
	// §IV-D must hold on the real simulated schedule.
	if len(result.Ranks) > 2 {
		t.Fatalf("critical path involves %d ranks: %v", len(result.Ranks), result.Ranks)
	}
	if result.CrossRankEdges > 1 {
		t.Fatalf("critical path crosses ranks %d times", result.CrossRankEdges)
	}
	// A step the run never reached has no window.
	if _, err := critpath.FromSpans(res.Spans.Table(), cfg.Steps); err == nil {
		t.Fatal("window of a step beyond the run accepted")
	}
}

func TestPlacementEveryDefersRecomputation(t *testing.T) {
	always := smallConfig(placement.CPLX{X: 50}, 25, 41)
	always.PlacementEvery = 1
	resAlways, err := Run(always)
	if err != nil {
		t.Fatal(err)
	}
	deferred := smallConfig(placement.CPLX{X: 50}, 25, 41)
	deferred.PlacementEvery = 1 << 20 // never re-place: inheritance only
	resNever, err := Run(deferred)
	if err != nil {
		t.Fatal(err)
	}
	// Same physics: identical block growth.
	if resAlways.FinalBlocks != resNever.FinalBlocks {
		t.Fatalf("block growth differs: %d vs %d", resAlways.FinalBlocks, resNever.FinalBlocks)
	}
	// Inheritance-only never invokes the policy after the initial placement.
	if len(resNever.PlacementWall) != 0 {
		t.Fatalf("deferred run computed %d placements", len(resNever.PlacementWall))
	}
	if len(resAlways.PlacementWall) == 0 {
		t.Fatal("always run computed no placements")
	}
	// Stale placement must cost runtime.
	if resNever.Phases.Total() <= resAlways.Phases.Total() {
		t.Fatalf("inheritance-only (%.3f) not slower than always re-place (%.3f)",
			resNever.Phases.Total(), resAlways.Phases.Total())
	}
}

func TestInheritanceKeepsChildrenOnParentRank(t *testing.T) {
	cfg := smallConfig(placement.Baseline{}, 12, 43)
	cfg.PlacementEvery = 1 << 20
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With pure inheritance there is nothing to migrate: children stay
	// with their parents.
	if res.Migrations != 0 {
		t.Fatalf("inheritance-only run migrated %d blocks", res.Migrations)
	}
}

// TestFluxCorrectionMessages: after refinement, fine-coarse face boundaries
// exist, so some planned exchanges are flux riders (§II-B: a fine block's
// restricted face fluxes to its coarser neighbor); they are a modest share of
// the plan, and each is priced at fluxBytes. Riders are told apart by their
// mesh entry, never by size: at the default block shape a flux message and
// an edge ghost slab are both 4 608 bytes.
func TestFluxCorrectionMessages(t *testing.T) {
	cfg := smallConfig(placement.Baseline{}, 5, 47)
	if err := validate(&cfg); err != nil {
		t.Fatal(err)
	}
	nranks := cfg.Net.Nodes * cfg.Net.RanksPerNode
	m := mesh.NewUniform(cfg.RootDims[0], cfg.RootDims[1], cfg.RootDims[2], cfg.MaxLevel)
	for _, i := range []int{0, 21, 42} {
		if err := m.Refine(m.Leaves()[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	st := &runState{
		cfg:       cfg,
		m:         m,
		rec:       cost.NewRecorder(cfg.CostAlpha),
		rebCharge: make([]float64, nranks),
		res:       &Result{},
	}
	costs := unitCosts(m.NumLeaves())
	st.buildEpochWith(placement.Baseline{}.Assign(costs, nranks), costs, nranks, true)

	var flux, total int
	for r, p := range st.ep.plans {
		v, i := p.view, 0
		for k := range v.Owned {
			v.Neighbors(k, func(ref mesh.Ref, e mesh.PairEntry) {
				if ref.IsOwned() {
					return
				}
				// Sends follow the neighbor enumeration one to one.
				x := p.sends[i]
				i++
				if x.tag != messageTag(v.Owned[k].Index, e) {
					t.Fatalf("rank %d send %d: tag %d, want the entry's %d", r, i-1, x.tag, messageTag(v.Owned[k].Index, e))
				}
				want := MessageSizes()[e.Kind]
				if e.Flux {
					flux++
					want = fluxBytes
				}
				if int(x.size) != want {
					t.Errorf("rank %d send %d (flux %v): %d bytes, want %d", r, i-1, e.Flux, x.size, want)
				}
			})
		}
		if i != len(p.sends) {
			t.Fatalf("rank %d plans %d sends, its view enumerates %d remote entries", r, len(p.sends), i)
		}
		total += i
	}
	if fluxBytes != MessageSizes()[mesh.Edge] {
		t.Fatalf("flux message %d B, edge slab %d B: the test's premise that size cannot tell them apart is stale",
			fluxBytes, MessageSizes()[mesh.Edge])
	}
	if flux == 0 {
		t.Fatalf("refined mesh plans no flux riders among %d sends", total)
	}
	// Restricted faces only: a modest share of the exchange.
	if float64(flux) > 0.25*float64(total) {
		t.Fatalf("%d of %d planned sends are flux riders: implausibly many", flux, total)
	}
}
