package experiments

import (
	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/telemetry"
)

// Fig3 reproduces the staged tuning of rankwise boundary communication:
// the untuned stack, then send prioritization in the task schedule, then
// shared-memory queue size tuning. Each stage reduces the variance of
// per-rank communication time, progressively revealing the underlying
// telemetry structure (and restoring the volume↔time correlation).
//
// Columns: stage, mean_comm_ms_per_step, comm_cv, corr, shm_contentions.
func Fig3(opts Options) (*telemetry.Table, error) {
	out := telemetry.NewTable(
		telemetry.StrCol("stage"), telemetry.FloatCol("mean_comm_ms_per_step"),
		telemetry.FloatCol("comm_cv"), telemetry.FloatCol("corr"),
		telemetry.IntCol("shm_contentions"),
	)
	sc := TableIScales[0]
	if opts.Quick {
		sc = QuickScale
	}
	steps := opts.steps()

	type stage struct {
		name       string
		sendsFirst bool
		queueDepth int
	}
	stages := []stage{
		{"untuned", false, 0},                   // small queue, compute-first schedule
		{"sends-first", true, 0},                // + send prioritization
		{"sends-first+queue-tuned", true, 1024}, // + queue size tuning
	}
	var specs []harness.Spec[*driver.Result]
	for _, s := range stages {
		cfg := sedovConfig(sc, placement.Baseline{}, steps, opts.Seed)
		net := simnet.Untuned(cfg.Net.Nodes, cfg.Net.RanksPerNode, opts.Seed)
		net.DrainQueue = true // isolate the two Fig 3 knobs from Fig 1b's
		if s.queueDepth > 0 {
			net.ShmQueueDepth = s.queueDepth
			net.ShmContentionPenalty = 2e-6
		}
		cfg.Net = net
		cfg.SendsFirst = s.sendsFirst
		specs = append(specs, opts.sedovSpec(s.name, cfg))
	}
	results, err := runCampaign(opts, "fig3", specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		corr, cv := commCorrelation(res)
		out.Append(stages[i].name,
			res.Phases.Comm/float64(steps)*1e3, cv, corr,
			int(res.Census.ShmContentions))
	}
	return out, nil
}
