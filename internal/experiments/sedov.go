package experiments

import (
	"fmt"

	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
)

// TableI reproduces Table I: the Sedov Blast Wave problem configurations.
// Timestep counts are scaled down from the paper's 30k–53k (see DESIGN.md);
// block growth (n_initial → n_final) and load-balancing cadence are
// emergent from the simulation.
//
// Columns: ranks, mesh, t_total, t_lb, n_initial, n_final.
func TableI(opts Options) (*telemetry.Table, error) {
	out := telemetry.NewTable(
		telemetry.IntCol("ranks"), telemetry.StrCol("mesh"),
		telemetry.IntCol("t_total"), telemetry.IntCol("t_lb"),
		telemetry.IntCol("n_initial"), telemetry.IntCol("n_final"),
	)
	steps := opts.steps()
	scales := opts.scales()
	var specs []harness.Spec[*driver.Result]
	for _, sc := range scales {
		cfg := sedovConfig(sc, placement.Baseline{}, steps, opts.Seed)
		cfg.CollectSteps = false // Table I only needs mesh statistics
		specs = append(specs, opts.sedovSpec(fmt.Sprintf("%dranks", sc.Ranks), cfg))
	}
	results, err := runCampaign(opts, "table1", specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		out.Append(scales[i].Ranks, scales[i].MeshDesc, steps, res.LBSteps,
			res.InitialBlocks, res.FinalBlocks)
	}
	return out, nil
}

// Fig6 runs the full placement evaluation (the paper's headline experiment)
// and returns the three panels of Fig 6:
//
//	A – total runtime decomposed into compute/comm/sync/rebalance per
//	    (scale, policy), with the improvement over baseline;
//	B – P2P communication and synchronization time normalized to baseline
//	    (the load–locality tradeoff);
//	C – local (intra-node) vs remote message counts normalized to the
//	    baseline total (locality degradation with X).
func Fig6(opts Options) (a, b, c *telemetry.Table, err error) {
	a = telemetry.NewTable(
		telemetry.IntCol("ranks"), telemetry.StrCol("policy"),
		telemetry.FloatCol("total_s"), telemetry.FloatCol("compute_s"),
		telemetry.FloatCol("comm_s"), telemetry.FloatCol("sync_s"),
		telemetry.FloatCol("rebalance_s"), telemetry.FloatCol("improvement_pct"),
		telemetry.FloatCol("noncompute_reduction_pct"),
	)
	b = telemetry.NewTable(
		telemetry.IntCol("ranks"), telemetry.StrCol("policy"),
		telemetry.FloatCol("comm_vs_baseline"), telemetry.FloatCol("sync_vs_baseline"),
	)
	c = telemetry.NewTable(
		telemetry.IntCol("ranks"), telemetry.StrCol("policy"),
		telemetry.FloatCol("local_frac_of_baseline_total"),
		telemetry.FloatCol("remote_frac_of_baseline_total"),
		telemetry.FloatCol("remote_share"),
	)
	steps := opts.steps()
	// Fan out the full (scale × policy) product — the paper's headline
	// campaign and the reason the harness exists. The reduce consumes
	// results in spec order, so each scale's baseline (first policy of
	// StandardSuite) is seen before the variants it normalizes.
	type cell struct {
		sc  SedovScale
		pol placement.Policy
	}
	var cells []cell
	var specs []harness.Spec[*driver.Result]
	for _, sc := range opts.scales() {
		for _, pol := range placement.StandardSuite(chunkFor(sc.Ranks)) {
			cells = append(cells, cell{sc, pol})
			specs = append(specs, opts.sedovSpec(
				fmt.Sprintf("%dranks-%s", sc.Ranks, pol.Name()),
				sedovConfig(sc, pol, steps, opts.Seed)))
		}
	}
	results, err := runCampaign(opts, "fig6", specs)
	if err != nil {
		return nil, nil, nil, err
	}
	var base *driver.Result
	for i, res := range results {
		if cells[i].pol.Name() == "baseline" {
			base = res
		}
		appendFig6Rows(a, b, c, cells[i].sc.Ranks, cells[i].pol.Name(), res, base)
	}
	return a, b, c, nil
}

// chunkFor returns the CDP chunk size the paper uses at scale (512-rank
// chunks from 4096 ranks up; smaller scales solve in one piece).
func chunkFor(ranks int) int {
	if ranks >= 4096 {
		return 512
	}
	return 0
}

func appendFig6Rows(a, b, c *telemetry.Table, ranks int, policy string, res, base *driver.Result) {
	p := res.Phases
	improvement := 0.0
	noncompute := 0.0
	commVs, syncVs := 1.0, 1.0
	localFrac, remoteFrac := 0.0, 0.0
	if base != nil {
		bp := base.Phases
		improvement = 100 * (bp.Total() - p.Total()) / bp.Total()
		bNC := bp.Total() - bp.Compute
		nc := p.Total() - p.Compute
		if bNC > 0 {
			noncompute = 100 * (bNC - nc) / bNC
		}
		if bp.Comm > 0 {
			commVs = p.Comm / bp.Comm
		}
		if bp.Sync > 0 {
			syncVs = p.Sync / bp.Sync
		}
		baseTotalMsgs := float64(base.Census.LocalMsgs + base.Census.RemoteMsgs)
		if baseTotalMsgs > 0 {
			localFrac = float64(res.Census.LocalMsgs) / baseTotalMsgs
			remoteFrac = float64(res.Census.RemoteMsgs) / baseTotalMsgs
		}
	}
	remoteShare := float64(res.Census.RemoteMsgs) /
		float64(res.Census.RemoteMsgs+res.Census.LocalMsgs)
	a.Append(ranks, policy, p.Total(), p.Compute, p.Comm, p.Sync, p.Rebalance,
		improvement, noncompute)
	b.Append(ranks, policy, commVs, syncVs)
	c.Append(ranks, policy, localFrac, remoteFrac, remoteShare)
}

// Fig6Cooling runs the AthenaPK-style galaxy-cooling comparison the paper
// mentions (§VI: "directionally similar"): lower compute variability, so
// smaller — but same-signed — placement gains.
//
// Columns: problem, policy, total_s, improvement_pct.
func Fig6Cooling(opts Options) (*telemetry.Table, error) {
	out := telemetry.NewTable(
		telemetry.StrCol("problem"), telemetry.StrCol("policy"),
		telemetry.FloatCol("total_s"), telemetry.FloatCol("improvement_pct"),
	)
	sc := QuickScale
	if !opts.Quick {
		sc = TableIScales[0]
	}
	steps := opts.steps()
	type cell struct {
		problem string
		pol     placement.Policy
	}
	var cells []cell
	var specs []harness.Spec[*driver.Result]
	for _, problem := range []string{"sedov", "cooling"} {
		for _, pol := range []placement.Policy{placement.Baseline{}, placement.CPLX{X: 50}} {
			cfg := sedovConfig(sc, pol, steps, opts.Seed)
			if problem == "cooling" {
				cfg.Problem = coolingProblem(sc, opts.Seed)
			}
			cells = append(cells, cell{problem, pol})
			specs = append(specs, opts.sedovSpec(problem+"-"+pol.Name(), cfg))
		}
	}
	var baseTotal float64
	results, err := runCampaign(opts, "cooling", specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		improvement := 0.0
		if cells[i].pol.Name() == "baseline" {
			baseTotal = res.Phases.Total()
		} else if baseTotal > 0 {
			improvement = 100 * (baseTotal - res.Phases.Total()) / baseTotal
		}
		out.Append(cells[i].problem, cells[i].pol.Name(), res.Phases.Total(), improvement)
	}
	return out, nil
}
