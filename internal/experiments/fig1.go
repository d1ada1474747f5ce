package experiments

import (
	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/stats"
	"amrtools/internal/telemetry"
)

// Fig1Top reproduces Fig 1 (top): the Pearson correlation between per-rank
// work (message counts) and communication time, before and after the system
// tuning of §IV. Untuned, shared-memory queue contention and exposed ACK
// recovery swamp the volume signal; tuned, communication time tracks
// message volume.
//
// Columns: config, corr, comm_cv, ack_stalls, shm_contentions.
func Fig1Top(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.StrCol("config"), telemetry.FloatCol("corr"),
		telemetry.FloatCol("comm_cv"), telemetry.IntCol("ack_stalls"),
		telemetry.IntCol("shm_contentions"),
	)
	sc := TableIScales[0] // 512 ranks
	if opts.Quick {
		sc = QuickScale
	}
	steps := opts.steps()
	names := []string{"untuned", "tuned"}
	var specs []harness.Spec[*driver.Result]
	for _, name := range names {
		cfg := sedovConfig(sc, placement.Baseline{}, steps, opts.Seed)
		if name == "untuned" {
			cfg.Net = untunedNet(cfg.Net.Nodes, cfg.Net.RanksPerNode, opts.Seed)
			cfg.SendsFirst = false
		}
		specs = append(specs, opts.sedovSpec(name, cfg))
	}
	for i, res := range runCampaign(opts, "fig1top", specs) {
		corr, cv := commCorrelation(res)
		out.Append(names[i], corr, cv,
			int(res.Census.AckStalls), int(res.Census.ShmContentions))
	}
	return out
}

// commCorrelation computes corr(per-rank message count, per-rank comm time)
// over whole-run per-rank totals, plus the coefficient of variation of the
// per-rank comm times (residual jitter).
func commCorrelation(res *driver.Result) (corr, cv float64) {
	g := res.Steps.GroupBy([]string{"rank"}, []telemetry.AggSpec{
		{Func: telemetry.Sum, Col: "msgs_sent", As: "msgs"},
		{Func: telemetry.Sum, Col: "comm", As: "comm"},
	})
	return g.Correlate("msgs", "comm"), stats.CoefVar(g.Floats("comm"))
}

// Fig1Bottom reproduces Fig 1 (bottom): fine-grained telemetry reveals
// MPI_Wait spikes caused by the fabric's missing-ACK recovery path; the
// drain-queue mitigation removes them and cuts the average collective
// (synchronization) time by ~3×.
//
// Columns: config, send_waits, spikes_gt_1ms, p99_wait_ms, max_wait_ms,
// mean_sync_per_step_ms.
func Fig1Bottom(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.StrCol("config"), telemetry.IntCol("send_waits"),
		telemetry.IntCol("spikes_gt_1ms"), telemetry.FloatCol("p99_wait_ms"),
		telemetry.FloatCol("max_wait_ms"), telemetry.FloatCol("mean_sync_per_step_ms"),
	)
	sc := QuickScale
	steps := opts.steps()
	names := []string{"no-drain", "drain-queue"}
	var specs []harness.Spec[*driver.Result]
	for _, name := range names {
		cfg := sedovConfig(sc, placement.Baseline{}, steps, opts.Seed)
		net := simnet.Tuned(cfg.Net.Nodes, cfg.Net.RanksPerNode, opts.Seed)
		net.AckLossProb = 0.02 // the faulty fabric of Fig 1b
		net.DrainQueue = name == "drain-queue"
		cfg.Net = net
		// The anomaly surfaced in the not-yet-reordered schedule, where the
		// send-request wait sits on the critical path; the tuned
		// sends-first order would overlap the stall behind compute.
		cfg.SendsFirst = false
		cfg.CollectWaits = true
		specs = append(specs, opts.sedovSpec(name, cfg))
	}
	for i, res := range runCampaign(opts, "fig1bottom", specs) {
		name := names[i]
		sendWaits := res.Waits.Filter(func(r int) bool {
			return res.Waits.ValueAt("kind", r) == "send"
		})
		durs := sendWaits.Floats("dur")
		spikes := 0
		for _, d := range durs {
			if d > 1e-3 {
				spikes++
			}
		}
		p99, max := 0.0, 0.0
		if len(durs) > 0 {
			p99 = stats.Percentile(durs, 99)
			max = stats.Max(durs)
		}
		out.Append(name, len(durs), spikes, p99*1e3, max*1e3,
			res.Phases.Sync/float64(steps)*1e3)
	}
	return out
}
