package experiments

import (
	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/health"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/telemetry"
)

// Fig2 reproduces the thermal-throttling episode of §IV-A: with two nodes
// throttled 4×, per-rank compute inflates in clusters of 16 ranks and global
// synchronization swallows most of the runtime. Excluding the affected
// nodes via the pre-run health check recovers most of the loss (the paper
// observed a 10 h → 2.5 h reduction).
//
// Columns: config, nodes, runtime_s, compute_s, sync_s, sync_share,
// throttled_compute_ratio, speedup_vs_throttled, probe_drift_max.
// probe_drift_max is the worst relative change in any pool node's probe
// kernel time between the pre-run and post-run health checks (§IV-A runs the
// probe on both sides of the job; drift means the node's condition changed
// mid-run and the pre-run pruning decision may be stale).
func Fig2(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.StrCol("config"), telemetry.IntCol("nodes"),
		telemetry.FloatCol("runtime_s"), telemetry.FloatCol("compute_s"),
		telemetry.FloatCol("sync_s"), telemetry.FloatCol("sync_share"),
		telemetry.FloatCol("throttled_compute_ratio"),
		telemetry.FloatCol("speedup_vs_throttled"),
		telemetry.FloatCol("probe_drift_max"),
	)
	// An overprovisioned pool: we need `want` nodes; two pool nodes are
	// secretly throttling.
	want := 8
	pool := want + 2
	if !opts.Quick {
		want, pool = 32, 36
	}
	throttled := map[int]float64{1: 4, pool - 2: 4}

	steps := opts.steps()
	rootFor := func(nodes int) [3]int {
		// 16 ranks/node, one initial block per rank.
		switch nodes * 16 {
		case 128:
			return [3]int{4, 4, 8}
		case 512:
			return [3]int{8, 8, 8}
		default:
			panic("experiments: unsupported Fig2 node count")
		}
	}

	// Run 1: naive launch on the first `want` pool nodes (one throttled
	// node slips in).
	naiveNet := simnet.Tuned(want, 16, opts.Seed)
	naiveNet.ThrottledNodes = map[int]float64{}
	for n, f := range throttled {
		if n < want {
			naiveNet.ThrottledNodes[n] = f
		}
	}
	cfgNaive := sedovConfig(SedovScale{RootDims: rootFor(want)}, placement.Baseline{}, steps, opts.Seed)
	cfgNaive.Net = naiveNet

	// Run 2: the §IV-A workflow — probe the overprovisioned pool, prune
	// fail-slow nodes, launch on healthy ones.
	poolNet := simnet.Tuned(pool, 16, opts.Seed)
	poolNet.ThrottledNodes = throttled
	checker := health.NewChecker(1.5)
	preProbes := health.ProbeNodes(poolNet)
	healthy, err := checker.SelectHealthy(preProbes, want)
	if err != nil {
		panic(err)
	}
	prunedNet := health.PruneConfig(poolNet, healthy)
	// Built from scratch, not copied from cfgNaive: the Problem inside a
	// Config is stateful (its RNG advances during the run), and specs of one
	// campaign may execute concurrently.
	cfgPruned := sedovConfig(SedovScale{RootDims: rootFor(want)}, placement.Baseline{}, steps, opts.Seed)
	cfgPruned.Net = prunedNet

	results := runCampaign(opts, "fig2", []harness.Spec[*driver.Result]{
		opts.sedovSpec("throttled", cfgNaive),
		opts.sedovSpec("health-pruned", cfgPruned),
	})
	resNaive, resPruned := results[0], results[1]

	// Post-run probe of the same pool (§IV-A probes on both sides of the
	// job): a node whose kernel time drifted from its pre-run measurement
	// changed condition mid-run.
	drift := maxProbeDrift(preProbes, health.ProbeNodes(poolNet))

	// Per-node compute ratio from the step table (the Fig 2 signature:
	// inflated compute in clusters of 16 ranks).
	ratio := throttledComputeRatio(resNaive.Steps, naiveNet.ThrottledNodes)

	out.Append("throttled", want, resNaive.Makespan,
		resNaive.Phases.Compute, resNaive.Phases.Sync,
		resNaive.Phases.Sync/resNaive.Phases.Total(), ratio, 1.0, drift)

	out.Append("health-pruned", want, resPruned.Makespan,
		resPruned.Phases.Compute, resPruned.Phases.Sync,
		resPruned.Phases.Sync/resPruned.Phases.Total(),
		throttledComputeRatio(resPruned.Steps, prunedNet.ThrottledNodes),
		resNaive.Makespan/resPruned.Makespan, drift)
	return out
}

// maxProbeDrift returns the worst |post-pre|/pre kernel-time change across
// nodes probed on both sides of a run (0 for stable hardware).
func maxProbeDrift(pre, post []health.ProbeResult) float64 {
	byNode := make(map[int]float64, len(pre))
	for _, p := range pre {
		byNode[p.Node] = p.KernelTime
	}
	worst := 0.0
	for _, p := range post {
		before, ok := byNode[p.Node]
		if !ok || before <= 0 {
			continue
		}
		d := (p.KernelTime - before) / before
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// throttledComputeRatio returns mean per-rank compute on throttled nodes
// divided by mean on healthy nodes (1 when no node is throttled).
func throttledComputeRatio(steps *telemetry.Table, throttledNodes map[int]float64) float64 {
	if len(throttledNodes) == 0 {
		return 1
	}
	g := steps.GroupBy([]string{"node"}, []telemetry.AggSpec{
		{Func: telemetry.Sum, Col: "compute", As: "compute"},
	})
	nodes := g.Ints("node")
	comp := g.Floats("compute")
	var tSum, tN, hSum, hN float64
	for i, node := range nodes {
		if _, bad := throttledNodes[int(node)]; bad {
			tSum += comp[i]
			tN++
		} else {
			hSum += comp[i]
			hN++
		}
	}
	if tN == 0 || hN == 0 || hSum == 0 {
		return 1
	}
	return (tSum / tN) / (hSum / hN)
}
