package experiments

import (
	"amrtools/internal/cost"
	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
	"amrtools/internal/xrand"
)

// Ablations isolates the design choices behind CPLX that the paper argues
// for but does not plot:
//
//   - measured vs unit costs (§V-A3 change 1: populating the framework cost
//     hooks from telemetry is what makes any cost-aware policy work);
//   - both-ends vs top-only rank selection in the CPLX rebalance (§V-D:
//     "including both ends is crucial, as rebalancing needs both source and
//     destination ranks");
//   - the EWMA smoothing factor for measured costs.
//
// Columns: ablation, variant, total_s, makespan_norm, improvement_pct.
// Rows with total_s = 0 are placement-only ablations (no simulation run).
func Ablations(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.StrCol("ablation"), telemetry.StrCol("variant"),
		telemetry.FloatCol("total_s"), telemetry.FloatCol("makespan_norm"),
		telemetry.FloatCol("improvement_pct"),
	)
	sc := QuickScale
	if !opts.Quick {
		sc = TableIScales[0]
	}
	steps := opts.steps()

	// All six simulation runs of ablations 1 and 3 are independent, so they
	// fan out as one campaign: the baseline reference, measured vs unit
	// costs (ablation 1), and the three EWMA alphas (ablation 3).
	cplxCfg := func(mutate func(*driver.Config)) driver.Config {
		cfg := sedovConfig(sc, placement.CPLX{X: 50}, steps, opts.Seed)
		mutate(&cfg)
		return cfg
	}
	specs := []harness.Spec[*driver.Result]{
		opts.sedovSpec("baseline", sedovConfig(sc, placement.Baseline{}, steps, opts.Seed)),
		opts.sedovSpec("measured-costs", cplxCfg(func(cfg *driver.Config) { cfg.UseMeasuredCosts = true })),
		opts.sedovSpec("unit-costs", cplxCfg(func(cfg *driver.Config) { cfg.UseMeasuredCosts = false })),
		opts.sedovSpec("alpha-1.0", cplxCfg(func(cfg *driver.Config) { cfg.CostAlpha = 1.0 })),
		opts.sedovSpec("alpha-0.5", cplxCfg(func(cfg *driver.Config) { cfg.CostAlpha = 0.5 })),
		opts.sedovSpec("alpha-0.1", cplxCfg(func(cfg *driver.Config) { cfg.CostAlpha = 0.1 })),
	}
	results := runCampaign(opts, "ablations", specs)
	base := results[0]
	improvement := func(res *driver.Result) float64 {
		return 100 * (base.Phases.Total() - res.Phases.Total()) / base.Phases.Total()
	}

	// Ablation 1: measured vs unit costs, end to end. With unit costs the
	// cost-aware machinery degenerates to count balancing and the gains
	// over baseline should mostly vanish.
	for i, variant := range []string{"measured-costs", "unit-costs"} {
		res := results[1+i]
		out.Append("cost-source", variant, res.Phases.Total(), 0.0, improvement(res))
	}

	// Ablation 2: both-ends vs top-only rebalancing (placement-level, over
	// heavy-tailed synthetic costs). Top-only selection lacks underloaded
	// destination ranks, so its makespan barely improves on CDP.
	// Gaussian costs at 4.5 blocks/rank: the regime where the bound is the
	// average (not one fat-tailed block), so rebalancing quality shows.
	rng := xrand.New(opts.Seed + 7)
	ranks := 256
	costs := cost.Sample(cost.Gaussian{Mean: 1, SD: 0.3}, ranks*4+ranks/2, rng)
	lb := placement.LowerBound(costs, ranks)
	for _, pol := range []placement.Policy{
		placement.CPLX{X: 50},
		placement.CPLX{X: 50, TopOnly: true},
		placement.CPLX{X: 0},
	} {
		a := pol.Assign(costs, ranks)
		out.Append("rebalance-ends", pol.Name(), 0.0,
			placement.Makespan(costs, a, ranks)/lb, 0.0)
	}

	// Ablation 3: EWMA smoothing factor for measured costs. Alpha 1 chases
	// per-step noise; tiny alpha lags the moving shock front.
	for i, variant := range []string{"alpha-1.0", "alpha-0.5", "alpha-0.1"} {
		res := results[3+i]
		out.Append("ewma-alpha", variant, res.Phases.Total(), 0.0, improvement(res))
	}
	return out
}
