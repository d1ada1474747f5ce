package amrtools

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md §4 for the index). Benchmarks run the experiments in quick mode
// so `go test -bench=.` finishes in minutes; the cmd/experiments binary
// (without -quick) reproduces the paper's full scales. Key result numbers
// are attached as custom benchmark metrics so `-bench` output doubles as a
// results table.

import (
	"testing"

	"amrtools/internal/experiments"
	"amrtools/internal/harness"
	"amrtools/internal/telemetry"
)

var benchOpts = experiments.Options{Quick: true, Seed: 42}

// lookupF returns column value of the first row matching key=val.
func lookupF(t *telemetry.Table, keyCol string, key interface{}, col string) float64 {
	for r := 0; r < t.NumRows(); r++ {
		if t.ValueAt(keyCol, r) == key {
			return t.NumericAt(col, r)
		}
	}
	return 0
}

// recorded runs one experiment with a fresh campaign recorder and reports
// the total DES events the harness observed — the simulation-work metric
// that makes ns/op comparable across machines.
func recorded(b *testing.B, run func(experiments.Options)) {
	rec := harness.NewRecorder()
	opts := benchOpts
	opts.Exec.Recorder = rec
	run(opts)
	t := rec.Table()
	var events float64
	for r := 0; r < t.NumRows(); r++ {
		if t.Strings("spec")[r] == harness.CampaignRow {
			events += float64(t.Ints("events")[r])
		}
	}
	b.ReportMetric(events, "des-events")
}

// BenchmarkFig1TopTelemetryCorrelation regenerates Fig 1 (top): the
// correlation between per-rank message counts and communication time,
// before and after stack tuning.
func BenchmarkFig1TopTelemetryCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig1Top(benchOpts)
		b.ReportMetric(lookupF(tab, "config", "untuned", "corr"), "corr-untuned")
		b.ReportMetric(lookupF(tab, "config", "tuned", "corr"), "corr-tuned")
	}
}

// BenchmarkFig1BottomWaitSpikes regenerates Fig 1 (bottom): MPI_Wait spikes
// under the faulty fabric and their elimination by the drain queue.
func BenchmarkFig1BottomWaitSpikes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig1Bottom(benchOpts)
		b.ReportMetric(lookupF(tab, "config", "no-drain", "spikes_gt_1ms"), "spikes-nodrain")
		b.ReportMetric(lookupF(tab, "config", "drain-queue", "spikes_gt_1ms"), "spikes-drain")
		nd := lookupF(tab, "config", "no-drain", "mean_sync_per_step_ms")
		dq := lookupF(tab, "config", "drain-queue", "mean_sync_per_step_ms")
		if dq > 0 {
			b.ReportMetric(nd/dq, "sync-reduction-x")
		}
	}
}

// BenchmarkFig2Throttling regenerates Fig 2: thermal throttling inflating
// compute 4x on whole nodes, and the recovery from health-check pruning.
func BenchmarkFig2Throttling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig2(benchOpts)
		b.ReportMetric(lookupF(tab, "config", "throttled", "throttled_compute_ratio"), "compute-ratio")
		b.ReportMetric(lookupF(tab, "config", "health-pruned", "speedup_vs_throttled"), "pruning-speedup-x")
	}
}

// BenchmarkFig3TuningStages regenerates Fig 3: rankwise boundary
// communication variance across the three tuning stages.
func BenchmarkFig3TuningStages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig3(benchOpts)
		b.ReportMetric(lookupF(tab, "stage", "untuned", "comm_cv"), "cv-untuned")
		b.ReportMetric(lookupF(tab, "stage", "sends-first+queue-tuned", "comm_cv"), "cv-tuned")
	}
}

// BenchmarkFig4CriticalPath regenerates Fig 4: the two-rank principle over
// randomized synchronization windows and the send-priority path shortening.
func BenchmarkFig4CriticalPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig4(benchOpts)
		holds := 1.0
		for r := 0; r < tab.NumRows(); r++ {
			if tab.Ints("principle_holds")[r] != 1 {
				holds = 0
			}
		}
		b.ReportMetric(holds, "two-rank-principle")
		slow := lookupF(tab, "window", "schedule-compute-first", "makespan_ms")
		fast := lookupF(tab, "window", "schedule-sends-first", "makespan_ms")
		b.ReportMetric(slow-fast, "sendfirst-gain-ms")
	}
}

// BenchmarkTableISedovConfigs regenerates Table I: Sedov configuration and
// block growth statistics.
func BenchmarkTableISedovConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recorded(b, func(o experiments.Options) {
			tab := experiments.TableI(o)
			b.ReportMetric(float64(tab.Ints("n_initial")[0]), "n-initial")
			b.ReportMetric(float64(tab.Ints("n_final")[0]), "n-final")
			b.ReportMetric(float64(tab.Ints("t_lb")[0]), "t-lb")
		})
	}
}

// BenchmarkFig6aRuntimeByPolicy regenerates Fig 6a: total runtime by phase
// across the policy suite, reporting the best improvement over baseline.
func BenchmarkFig6aRuntimeByPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recorded(b, func(o experiments.Options) {
			a, _, _ := experiments.Fig6(o)
			best := 0.0
			for r := 0; r < a.NumRows(); r++ {
				if imp := a.Floats("improvement_pct")[r]; imp > best {
					best = imp
				}
			}
			b.ReportMetric(best, "best-improvement-%")
			b.ReportMetric(lookupF(a, "policy", "cpl50", "improvement_pct"), "cpl50-improvement-%")
		})
	}
}

// BenchmarkFig6bTradeoff regenerates Fig 6b: comm and sync time normalized
// to baseline as X varies.
func BenchmarkFig6bTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tab, _ := experiments.Fig6(benchOpts)
		b.ReportMetric(lookupF(tab, "policy", "cpl100", "comm_vs_baseline"), "lpt-comm-x")
		b.ReportMetric(lookupF(tab, "policy", "cpl100", "sync_vs_baseline"), "lpt-sync-x")
	}
}

// BenchmarkFig6cMessageLocality regenerates Fig 6c: the local/remote message
// split as X varies.
func BenchmarkFig6cMessageLocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, tab := experiments.Fig6(benchOpts)
		b.ReportMetric(lookupF(tab, "policy", "cpl0", "remote_share"), "cpl0-remote-share")
		b.ReportMetric(lookupF(tab, "policy", "cpl100", "remote_share"), "lpt-remote-share")
	}
}

// BenchmarkFig7aCommbench regenerates Fig 7 (top): boundary-exchange round
// latency vs placement locality.
func BenchmarkFig7aCommbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig7a(benchOpts)
		b.ReportMetric(lookupF(tab, "policy", "cpl0", "mean_round_ms"), "cpl0-round-ms")
		b.ReportMetric(lookupF(tab, "policy", "cpl100", "mean_round_ms"), "lpt-round-ms")
	}
}

// BenchmarkFig7bMakespan regenerates Fig 7 (middle): normalized makespan
// across cost distributions and X.
func BenchmarkFig7bMakespan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig7b(benchOpts)
		b.ReportMetric(lookupF(tab, "policy", "cpl0", "norm_makespan"), "cpl0-norm-makespan")
		b.ReportMetric(lookupF(tab, "policy", "cpl100", "norm_makespan"), "lpt-norm-makespan")
	}
}

// BenchmarkFig7cPlacementOverhead regenerates Fig 7 (bottom): placement
// computation wall time vs scale against the 50 ms budget.
func BenchmarkFig7cPlacementOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig7c(benchOpts)
		worst := 0.0
		for r := 0; r < tab.NumRows(); r++ {
			if v := tab.Floats("placement_ms")[r]; v > worst {
				worst = v
			}
		}
		b.ReportMetric(worst, "worst-placement-ms")
	}
}

// BenchmarkLPTvsSolver regenerates the §V-B validation: LPT against the
// exact branch-and-bound solver.
func BenchmarkLPTvsSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.LPTvsILP(benchOpts)
		worst := 0.0
		for r := 0; r < tab.NumRows(); r++ {
			if g := tab.Floats("gap_pct")[r]; g > worst {
				worst = g
			}
		}
		b.ReportMetric(worst, "worst-gap-%")
	}
}

// BenchmarkAblations regenerates the design ablations DESIGN.md calls out:
// measured vs unit costs, both-ends vs top-only rebalance, EWMA alpha.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Ablations(benchOpts)
		b.ReportMetric(lookupF(tab, "variant", "measured-costs", "improvement_pct"), "measured-improvement-%")
		b.ReportMetric(lookupF(tab, "variant", "unit-costs", "improvement_pct"), "unitcost-improvement-%")
		b.ReportMetric(lookupF(tab, "variant", "cpl50-toponly", "makespan_norm"), "toponly-norm-makespan")
		b.ReportMetric(lookupF(tab, "variant", "cpl50", "makespan_norm"), "bothends-norm-makespan")
	}
}

// BenchmarkNeighborhoodCollectives regenerates the §VIII what-if: rank-pair
// message aggregation versus the raw P2P exchange of the paper's codes.
func BenchmarkNeighborhoodCollectives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recorded(b, func(o experiments.Options) {
			tab := experiments.NeighborhoodCollectives(o)
			b.ReportMetric(lookupF(tab, "mode", "p2p", "mean_round_ms"), "p2p-round-ms")
			b.ReportMetric(lookupF(tab, "mode", "aggregated", "mean_round_ms"), "agg-round-ms")
		})
	}
}

// BenchmarkCoolingComparison regenerates the §VI AthenaPK-style cross-check:
// a lower-variability problem benefits less, but in the same direction.
func BenchmarkCoolingComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig6Cooling(benchOpts)
		for r := 0; r < tab.NumRows(); r++ {
			if tab.ValueAt("policy", r) == "cpl50" {
				name := tab.Strings("problem")[r] + "-improvement-%"
				b.ReportMetric(tab.Floats("improvement_pct")[r], name)
			}
		}
	}
}
