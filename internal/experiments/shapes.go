package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"amrtools/internal/telemetry"
)

// Status is a paper claim's standing in this reproduction. A claim's Check
// always tests what the paper says, so Holds expects it to pass and Weaker
// and NotReproduced expect it to fail. Varies, a quick status only, marks a
// claim the quick seed sweep saw both hold and fail; it never disagrees.
type Status string

const (
	Holds         Status = "holds"          // reproduced
	Weaker        Status = "weaker"         // same direction, not the paper's degree
	NotReproduced Status = "not-reproduced" // absent from this model
	Varies        Status = "varies"         // quick only: seed-dependent (EXPERIMENTS.md has the sweep's counts)
)

// tabs is every table a run printed, keyed by experiment id.
type tabs = map[string][]NamedTable

// Claim is one of the paper's shape claims, stated once: what the paper
// says, how this reproduction stands on it at full and at quick scale, and
// the predicate that decides it from the experiment tables. An empty Quick
// means the same as Full. Check reports applicable = false when the tables
// lack the scale the claim is about.
type Claim struct {
	ID          string
	Exps        []string // suite ids whose tables Check reads
	Paper       string
	Full, Quick Status
	Check       func(tabs) (measured string, holds, applicable bool)
}

// status is c's status at quick or at full scale.
func (c Claim) status(quick bool) Status {
	if quick && c.Quick != "" {
		return c.Quick
	}
	return c.Full
}

// Judge evaluates every claim whose experiments all ran against the tables
// and returns the ledger (id, status, paper, measured, verdict) and how many
// claims disagree with their status, in either direction. A varies claim
// and a claim that does not apply never disagree.
func Judge(claims []Claim, ts tabs, quick bool) (*telemetry.Table, int) {
	out := telemetry.NewTable(telemetry.StrCol("id"), telemetry.StrCol("status"),
		telemetry.StrCol("paper"), telemetry.StrCol("measured"), telemetry.StrCol("verdict"))
	bad := 0
	for _, c := range claims {
		if slices.ContainsFunc(c.Exps, func(id string) bool { _, ok := ts[id]; return !ok }) {
			continue
		}
		st := c.status(quick)
		measured, holds, applicable := c.Check(ts)
		verdict := "fails"
		switch {
		case !applicable:
			verdict = "n/a"
		case holds:
			verdict = "holds"
		}
		if st != Varies && applicable && holds != (st == Holds) {
			bad++
			verdict += " (disagrees)"
		}
		out.Append(c.ID, string(st), c.Paper, measured, verdict)
	}
	return out, bad
}

// cell returns column col of the one row of t whose key columns hold the
// given values (name, value pairs; int64 for integer columns). The tables
// have a fixed shape, so a missing or repeated row is a bug and panics.
func cell(t *telemetry.Table, col string, key ...any) float64 {
	row := -1
	for r := 0; r < t.NumRows(); r++ {
		match := true
		for i := 0; i+1 < len(key) && match; i += 2 {
			match = t.ValueAt(key[i].(string), r) == key[i+1]
		}
		if match {
			if row >= 0 {
				panic(fmt.Sprintf("experiments: rows %d and %d both match %v", row, r, key))
			}
			row = r
		}
	}
	if row < 0 {
		panic(fmt.Sprintf("experiments: no row matches %v", key))
	}
	return t.NumericAt(col, row)
}

// perScale applies f at every distinct ranks value of t, in row order; the
// claim holds when f holds at all of them.
func perScale(t *telemetry.Table, f func(ranks int64) (string, bool)) (string, bool, bool) {
	var parts []string
	all := true
	ranks := t.Ints("ranks")
	for i, r := range ranks {
		if !slices.Contains(ranks[:i], r) {
			m, ok := f(r)
			all = all && ok
			parts = append(parts, fmt.Sprintf("%d: %s", r, m))
		}
	}
	return strings.Join(parts, "; "), all, true
}

// rows is a claim on experiment exp's first table that ok decides from
// column col at the rows whose keyCol holds each of keys.
func rows(id, exp, paper string, st Status, col, keyCol string, ok func([]float64) bool, keys ...any) Claim {
	return Claim{ID: id, Exps: []string{exp}, Paper: paper, Full: st,
		Check: func(ts tabs) (string, bool, bool) {
			v := make([]float64, len(keys))
			for i, k := range keys {
				v[i] = cell(ts[exp][0].Table, col, keyCol, k)
			}
			return col + " " + join(v), ok(v), true
		}}
}

// scaled is a claim on table panel of experiment exp that must hold at
// every scale it has; ok decides from column col at each of the policies.
func scaled(id, exp string, panel int, paper string, st Status, col string, ok func([]float64) bool, pols ...string) Claim {
	return Claim{ID: id, Exps: []string{exp}, Paper: paper, Full: st,
		Check: func(ts tabs) (string, bool, bool) {
			t := ts[exp][panel].Table
			return perScale(t, func(r int64) (string, bool) {
				v := make([]float64, len(pols))
				for i, p := range pols {
					v[i] = cell(t, col, "ranks", r, "policy", p)
				}
				return join(v), ok(v)
			})
		}}
}

// variesAtQuick gives c the quick status Varies.
func variesAtQuick(c Claim) Claim { c.Quick = Varies; return c }

// join renders cells in order, a -> b -> ...
func join(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3g", x)
	}
	return strings.Join(s, " -> ")
}

// Predicates over the cells rows and scaled pick.
func up(v []float64) bool   { return v[len(v)-1] > v[0] }
func down(v []float64) bool { return v[len(v)-1] < v[0] }
func above(x float64) func([]float64) bool {
	return func(v []float64) bool { return slices.Min(v) > x }
}
func atLeast(x float64) func([]float64) bool {
	return func(v []float64) bool { return slices.Min(v) >= x }
}

var cplx = []string{"cpl0", "cpl25", "cpl50", "cpl75", "cpl100"}

// argmin returns the policy of cplx whose cell col is lowest at ranks.
func argmin(t *telemetry.Table, col string, ranks int64) string {
	best := cplx[0]
	for _, p := range cplx[1:] {
		if cell(t, col, "ranks", ranks, "policy", p) < cell(t, col, "ranks", ranks, "policy", best) {
			best = p
		}
	}
	return best
}

// interior reports whether policy p is an intermediate X (neither end).
func interior(p string) bool { return p != cplx[0] && p != cplx[len(cplx)-1] }

// Shapes is the ledger of the paper's shape claims, in suite order;
// cmd/experiments prints it after the tables and exits 1 when a verdict
// disagrees with its status. The statuses were recorded at particular
// seeds: Full from the full run at seed 42, Quick from the quick sweep over
// seeds 1-10 and 42 on both engines (EXPERIMENTS.md). At any other seed a
// disagreement is a finding to record here, not a regression.
var Shapes = []Claim{
	rows("fig1top/tuning-raises-corr", "fig1top", "corr(msg volume, comm time) is poor untuned and much better tuned",
		Holds, "corr", "config", up, "untuned", "tuned"),
	rows("fig1top/tuned-corr-strong", "fig1top", "tuned telemetry can ground placement: corr >= 0.5",
		Holds, "corr", "config", atLeast(0.5), "tuned"),
	rows("fig1bottom/spikes-without-drain", "fig1bottom", "occasional MPI_Wait spikes on the faulty fabric",
		Holds, "spikes_gt_1ms", "config", above(0), "no-drain"),
	rows("fig1bottom/drain-removes-spikes", "fig1bottom", "the drain queue removes the spikes",
		Holds, "spikes_gt_1ms", "config", func(v []float64) bool { return v[0] == 0 }, "drain-queue"),
	rows("fig1bottom/drain-cuts-sync", "fig1bottom", "the drain queue cuts collective time",
		Holds, "mean_sync_per_step_ms", "config", down, "no-drain", "drain-queue"),
	rows("fig1bottom/drain-cuts-sync-3x", "fig1bottom", "the drain queue cuts collective time ~3x (>= 2x)",
		Weaker, "mean_sync_per_step_ms", "config", func(v []float64) bool { return v[0] >= 2*v[1] }, "no-drain", "drain-queue"),
	rows("fig2/throttle-inflates-compute", "fig2", "throttled nodes compute ~4x slower (>= 3x)",
		Holds, "throttled_compute_ratio", "config", atLeast(3), "throttled"),
	rows("fig2/sync-dominates-throttled", "fig2", "sync dominates a throttled run (share >= 50 %)",
		Holds, "sync_share", "config", atLeast(0.5), "throttled"),
	rows("fig2/sync-share-over-70pct", "fig2", "sync takes > 70 % of a throttled run",
		Holds, "sync_share", "config", above(0.7), "throttled"),
	rows("fig2/pruning-recovers-runtime", "fig2", "health pruning recovers runtime (>= 1.5x)",
		Holds, "speedup_vs_throttled", "config", atLeast(1.5), "health-pruned"),
	variesAtQuick(rows("fig2/pruning-speedup-4x", "fig2", "health pruning cuts runtime ~4x, 10 h -> 2.5 h (>= 3x)",
		Holds, "speedup_vs_throttled", "config", atLeast(3), "health-pruned")),
	rows("fig3/send-priority-cuts-comm", "fig3", "send priority cuts comm time",
		Holds, "mean_comm_ms_per_step", "stage", down, "untuned", "sends-first"),
	rows("fig3/queue-tuning-cuts-comm", "fig3", "queue tuning cuts comm time further",
		Holds, "mean_comm_ms_per_step", "stage", down, "sends-first", "sends-first+queue-tuned"),
	rows("fig3/send-priority-cuts-cv", "fig3", "send priority reduces rankwise noise (comm CV)",
		Holds, "comm_cv", "stage", down, "untuned", "sends-first"),
	variesAtQuick(rows("fig3/queue-tuning-cuts-cv", "fig3", "queue tuning further reduces variance (comm CV)",
		Holds, "comm_cv", "stage", down, "sends-first", "sends-first+queue-tuned")),
	rows("fig3/tuning-cuts-cv", "fig3", "full tuning cuts comm CV versus untuned",
		Holds, "comm_cv", "stage", down, "untuned", "sends-first+queue-tuned"),
	rows("fig3/send-priority-raises-corr", "fig3", "send priority reveals faint trends (corr up)",
		Holds, "corr", "stage", up, "untuned", "sends-first"),
	rows("fig3/tuning-raises-corr", "fig3", "full tuning raises corr(msg volume, comm time)",
		Holds, "corr", "stage", up, "untuned", "sends-first+queue-tuned"),
	{ID: "fig4/two-rank-principle", Exps: []string{"fig4"}, Full: Holds,
		Paper: "a sync window's critical path involves at most 2 ranks",
		Check: func(ts tabs) (string, bool, bool) {
			t := ts["fig4"][0].Table
			most := slices.Max(t.Ints("ranks_on_path"))
			return fmt.Sprintf("<= %d ranks in %d windows", most, t.NumRows()),
				most <= 2 && slices.Min(t.Ints("principle_holds")) == 1, true
		}},
	rows("fig4/send-priority-shortens-path", "fig4", "send priority shortens the Fig 4 schedule",
		Holds, "makespan_ms", "window", down, "schedule-compute-first", "schedule-sends-first"),
	rows("fig4/send-priority-cuts-path-wait", "fig4", "send priority removes dispatch delay from a Sedov window's path",
		Holds, "wait_on_path_ms", "window", down, "sedov-window-compute-first", "sedov-window-sends-first"),
	{ID: "table1/block-growth", Exps: []string{"table1"}, Full: Holds,
		Paper: "one block per rank at start, <= 6x that at the end, load balancing runs",
		Check: func(ts tabs) (string, bool, bool) {
			t := ts["table1"][0].Table
			return perScale(t, func(r int64) (string, bool) {
				a, b, lb := cell(t, "n_initial", "ranks", r), cell(t, "n_final", "ranks", r), cell(t, "t_lb", "ranks", r)
				return fmt.Sprintf("%.0f -> %.0f blocks, t_lb %.0f", a, b, lb), a == float64(r) && b > a && b <= 6*a && lb > 0
			})
		}},
	{ID: "table1/growth-near-paper", Exps: []string{"table1"}, Full: Holds,
		Paper: "n_final 2080 / 3824 / 4848 / 8968 at 512-4096 ranks (within 40 %)",
		Check: func(ts tabs) (string, bool, bool) {
			t := ts["table1"][0].Table
			paper := map[int64]float64{512: 2080, 1024: 3824, 2048: 4848, 4096: 8968}
			if paper[t.Ints("ranks")[0]] == 0 {
				return "no paper scale", false, false
			}
			return perScale(t, func(r int64) (string, bool) {
				x := cell(t, "n_final", "ranks", r) / paper[r]
				return fmt.Sprintf("%.2fx", x), x >= 0.6 && x <= 1.4
			})
		}},
	variesAtQuick(scaled("fig6a/cpl0-beats-baseline", "fig6", 0, "CPL0 improves on baseline at every scale",
		Holds, "improvement_pct", above(0), "cpl0")),
	scaled("fig6a/cplx-beats-baseline", "fig6", 0, "CPL25..CPL100 improve on baseline at every scale",
		Holds, "improvement_pct", above(0), cplx[1:]...),
	scaled("fig6a/compute-flat", "fig6", 0, "compute time is invariant to placement (within 10 %)",
		Holds, "compute_s", func(v []float64) bool { return slices.Max(v) <= 1.1*v[0] && slices.Min(v) >= 0.9*v[0] },
		append([]string{"baseline"}, cplx...)...),
	{ID: "fig6a/interior-optimum", Exps: []string{"fig6"}, Full: NotReproduced, Quick: Varies,
		Paper: "runtime is lowest at an intermediate X (CPL50 best)",
		Check: func(ts tabs) (string, bool, bool) {
			t := ts["fig6"][0].Table
			return perScale(t, func(r int64) (string, bool) { best := argmin(t, "total_s", r); return best, interior(best) })
		}},
	{ID: "fig6a/baseline-sync-share", Exps: []string{"fig6"}, Full: Weaker,
		Paper: "baseline sync share 35 % at 512 -> 50 % at 4096 ranks (within 5 points)",
		Check: func(ts tabs) (string, bool, bool) {
			a, b, m, ok := syncShares(ts)
			return m, math.Abs(a-0.35) <= 0.05 && math.Abs(b-0.5) <= 0.05, ok
		}},
	{ID: "fig6a/sync-share-grows-with-scale", Exps: []string{"fig6"}, Full: Holds,
		Paper: "baseline sync share grows from 512 to 4096 ranks",
		Check: func(ts tabs) (string, bool, bool) {
			a, b, m, ok := syncShares(ts)
			return m, b > a, ok
		}},
	scaled("fig6b/comm-grows-with-x", "fig6", 1, "comm time grows with X",
		Holds, "comm_vs_baseline", up, "cpl0", "cpl100"),
	scaled("fig6b/sync-falls-with-x", "fig6", 1, "sync time falls with X",
		Holds, "sync_vs_baseline", down, "cpl0", "cpl100"),
	scaled("fig6b/lpt-comm-1.55x", "fig6", 1, "CPL100 comm is ~1.55x baseline (within 20 %)",
		Weaker, "comm_vs_baseline", func(v []float64) bool { return math.Abs(v[0]/1.55-1) <= 0.2 }, "cpl100"),
	scaled("fig6c/remote-grows-with-x", "fig6", 2, "remote message share grows with X",
		Holds, "remote_share", up, "cpl0", "cpl100"),
	{ID: "fig6c/volume-grows-with-x", Exps: []string{"fig6"}, Full: Holds,
		Paper: "total MPI volume grows with X (memcpy becomes MPI)",
		Check: func(ts tabs) (string, bool, bool) {
			t := ts["fig6"][2].Table
			return perScale(t, func(r int64) (string, bool) {
				v := cell(t, "local_frac_of_baseline_total", "ranks", r, "policy", "cpl100") +
					cell(t, "remote_frac_of_baseline_total", "ranks", r, "policy", "cpl100")
				return fmt.Sprintf("%.3gx", v), v > 1
			})
		}},
	{ID: "cooling/not-strongly-negative", Exps: []string{"cooling"}, Full: Holds,
		Paper: "CPL50 gains on Sedov and does not hurt cooling (> -3 %)",
		Check: func(ts tabs) (string, bool, bool) { s, c, m := coolingGains(ts); return m, s > 0 && c > -3, true }},
	{ID: "cooling/directionally-similar", Exps: []string{"cooling"}, Full: Holds,
		Paper: "galaxy cooling gains from CPL50 in the same direction as Sedov",
		Check: func(ts tabs) (string, bool, bool) { s, c, m := coolingGains(ts); return m, s > 0 && c > 0, true }},
	scaled("fig7a/remote-grows-with-x", "fig7a", 0, "commbench's remote share grows with X",
		Holds, "remote_share", up, "cpl0", "cpl100"),
	scaled("fig7a/latency-in-range", "fig7a", 0, "a boundary-exchange round takes (0, 10] ms",
		Holds, "mean_round_ms", func(v []float64) bool { return slices.Min(v) > 0 && slices.Max(v) <= 10 }, cplx...),
	{ID: "fig7a/locality-lowers-latency", Exps: []string{"fig7a"}, Full: Holds,
		Paper: "at <= 512 ranks higher locality means lower latency (CPL0 < CPL100)",
		Check: func(ts tabs) (string, bool, bool) {
			t := ts["fig7a"][0].Table
			r := t.Ints("ranks")[0]
			a, b := cell(t, "mean_round_ms", "ranks", r, "policy", "cpl0"), cell(t, "mean_round_ms", "ranks", r, "policy", "cpl100")
			return fmt.Sprintf("%d: %s ms", r, join([]float64{a, b})), a < b, r <= 512
		}},
	{ID: "fig7a/u-shape-at-2048", Exps: []string{"fig7a"}, Full: NotReproduced,
		Paper: "at 2048 ranks an intermediate X has the lowest latency",
		Check: func(ts tabs) (string, bool, bool) {
			t := ts["fig7a"][0].Table
			if !slices.Contains(t.Ints("ranks"), 2048) {
				return "no 2048-rank runs", false, false
			}
			best := argmin(t, "mean_round_ms", 2048)
			return best + " fastest", interior(best), true
		}},
	{ID: "fig7a/commbench-x-is-e2e-x", Exps: []string{"fig7a", "fig6"}, Full: NotReproduced,
		Paper: "commbench selects the X that is best end to end",
		Check: func(ts tabs) (string, bool, bool) {
			cb, e2e := ts["fig7a"][0].Table, ts["fig6"][0].Table
			return perScale(cb, func(r int64) (string, bool) {
				a, b := argmin(cb, "mean_round_ms", r), argmin(e2e, "total_s", r)
				return a + " vs " + b, a == b
			})
		}},
	fig7bEach("fig7b/lpt-lowest", "CPL100 (LPT) has the lowest makespan for every distribution", func(ms func(string) float64) bool {
		return !slices.ContainsFunc(append([]string{"baseline"}, cplx...), func(p string) bool { return ms("cpl100") > ms(p)+1e-9 })
	}),
	fig7bEach("fig7b/cdp-beats-baseline", "CPL0 (CDP) is never worse than baseline", func(ms func(string) float64) bool {
		return ms("baseline") >= ms("cpl0")-1e-9
	}),
	fig7bEach("fig7b/cpl25-captures-bulk", "CPL25 captures the bulk (>= 60 %) of the baseline-to-LPT gain", func(ms func(string) float64) bool {
		gap := ms("baseline") - ms("cpl100")
		return gap <= 0.05 || (ms("baseline")-ms("cpl25"))/gap >= 0.6
	}),
	variesAtQuick(lptGap("lptilp/solver-within-5pct", "the exact solver beats LPT by no more than 5 %", Holds,
		func(gap []float64) bool { return slices.Max(gap) <= 5 })),
	lptGap("lptilp/solver-not-worse", "the exact solver never returns worse than its LPT incumbent", Holds,
		func(gap []float64) bool { return slices.Min(gap) >= -1e-9 }),
	variesAtQuick(lptGap("lptilp/solver-no-gain", "200 s of Gurobi finds no improvement over LPT (gap < 1 %)", Weaker,
		func(gap []float64) bool { return slices.Max(gap) < 1 })),
	rows("ablations/measured-beats-unit-costs", "ablations", "telemetry-measured block costs are the enabler (beat unit costs)",
		Holds, "improvement_pct", "variant", down, "measured-costs", "unit-costs"),
	rows("ablations/both-ends-beat-top-only", "ablations", "rebalancing both ends is crucial (beats top-only)",
		Holds, "makespan_norm", "variant", up, "cpl50", "cpl50-toponly"),
	variesAtQuick(rows("ablations/top-only-within-cdp-seed", "ablations", "top-only rebalancing is no worse than its CDP seed",
		Holds, "makespan_norm", "variant", func(v []float64) bool { return v[0] <= v[1]+1e-9 }, "cpl50-toponly", "cpl0")),
	rows("lbinterval/always-replace-beats-never", "lbinterval", "re-placing on every mesh change beats inheritance only",
		Holds, "improvement_pct", "placement_every", up, int64(0), int64(4), int64(2), int64(1)),
	rows("hilbert/nontrivial-locality", "hilbert", "both orderings keep > 5 % of neighbours node-local",
		Holds, "node_locality", "ordering", above(0.05), "morton", "hilbert"),
	rows("hilbert/competitive", "hilbert", "Hilbert node locality is within 20 % of Morton's",
		Holds, "node_locality", "ordering", func(v []float64) bool { return v[1] >= 0.8*v[0] }, "morton", "hilbert"),
	rows("neighborhood/fewer-messages", "neighborhood", "rank-pair aggregation sends fewer messages",
		Holds, "msgs_per_round", "mode", down, "p2p", "aggregated"),
	rows("neighborhood/not-much-slower", "neighborhood", "an aggregated round is at most 1.5x a p2p round",
		Holds, "mean_round_ms", "mode", func(v []float64) bool { return v[1] <= 1.5*v[0] }, "p2p", "aggregated"),
	rows("neighborhood/aggregation-faster", "neighborhood", "aggregation amortizes per-message cost: rounds get faster",
		Holds, "mean_round_ms", "mode", down, "p2p", "aggregated"),
}

// syncShares returns Fig 6a's baseline sync share at 512 and at 4096 ranks,
// and whether the run has both scales.
func syncShares(ts tabs) (at512, at4096 float64, measured string, ok bool) {
	t := ts["fig6"][0].Table
	if !slices.Contains(t.Ints("ranks"), 512) || !slices.Contains(t.Ints("ranks"), 4096) {
		return 0, 0, "no 512/4096 runs", false
	}
	at512 = cell(t, "sync_s", "ranks", int64(512), "policy", "baseline") / cell(t, "total_s", "ranks", int64(512), "policy", "baseline")
	at4096 = cell(t, "sync_s", "ranks", int64(4096), "policy", "baseline") / cell(t, "total_s", "ranks", int64(4096), "policy", "baseline")
	return at512, at4096, fmt.Sprintf("%.0f %% -> %.0f %%", 100*at512, 100*at4096), true
}

// coolingGains returns CPL50's improvement on Sedov and on cooling.
func coolingGains(ts tabs) (sedov, cooling float64, measured string) {
	t := ts["cooling"][0].Table
	sedov = cell(t, "improvement_pct", "problem", "sedov", "policy", "cpl50")
	cooling = cell(t, "improvement_pct", "problem", "cooling", "policy", "cpl50")
	return sedov, cooling, fmt.Sprintf("sedov %+.1f %%, cooling %+.1f %%", sedov, cooling)
}

// fig7bEach is a claim that ok holds in every (ranks, dist) cell of Fig 7b,
// given the cell's normalized makespan by policy.
func fig7bEach(id, paper string, ok func(ms func(policy string) float64) bool) Claim {
	return Claim{ID: id, Exps: []string{"fig7b"}, Paper: paper, Full: Holds,
		Check: func(ts tabs) (string, bool, bool) {
			t := ts["fig7b"][0].Table
			ranks, dists := t.Ints("ranks"), t.Strings("dist")
			failed, cells := 0, 0
			for r, pol := range t.Strings("policy") {
				if pol == "baseline" { // one baseline row per cell
					cells++
					if !ok(func(p string) float64 {
						return cell(t, "norm_makespan", "ranks", ranks[r], "dist", dists[r], "policy", p)
					}) {
						failed++
					}
				}
			}
			return fmt.Sprintf("fails in %d of %d cells", failed, cells), failed == 0, true
		}}
}

// lptGap is a claim on the §V-B solver's gaps over LPT, in percent.
func lptGap(id, paper string, st Status, ok func(gap []float64) bool) Claim {
	return Claim{ID: id, Exps: []string{"lptilp"}, Paper: paper, Full: st,
		Check: func(ts tabs) (string, bool, bool) {
			gap := ts["lptilp"][0].Table.Floats("gap_pct")
			return fmt.Sprintf("gap %.3g..%.3g %%", slices.Min(gap), slices.Max(gap)), ok(gap), true
		}}
}
