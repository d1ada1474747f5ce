package experiments

import (
	"fmt"

	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/metrics"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
)

// differentialPairs are the policy identities the placement layer promises
// by construction: CPLX collapses to its CDP seed at X = 0 and to pure LPT
// at X = 100 (§V-D). A whole simulated run under each side of a pair must
// therefore be indistinguishable — same makespan, same message census, same
// final mesh. Any daylight between them means a policy, driver, or harness
// change broke an equivalence the paper's comparisons rest on.
var differentialPairs = []struct {
	ID   string
	A, B placement.Policy
}{
	{"cpl0-vs-cdp", placement.CPLX{X: 0}, placement.CDP{Restricted: true}},
	{"cpl100-vs-lpt", placement.CPLX{X: 100}, placement.LPT{}},
}

// Differential is the end-to-end differential audit campaign: it runs every
// policy-identity pair as full paranoid-mode simulations and reports whether
// the two sides agree, then re-runs the whole campaign on 1 and 4 workers
// and reports whether the rendered tables are byte-identical (the harness's
// determinism promise). One scale suffices — the identities are structural,
// not scale-dependent — so full mode uses the first Table I configuration.
//
// Columns: pair, mesh, ranks, makespan_a, makespan_b, equal (1 when the two
// runs match on makespan, census, and final block count).
func Differential(opts Options) (*telemetry.Table, error) {
	j1, j4 := opts, opts
	j1.Exec.Workers = 1
	j4.Exec.Workers = 4
	t1, err := differentialTable(j1)
	if err != nil {
		return nil, err
	}
	t4, err := differentialTable(j4)
	if err != nil {
		return nil, err
	}
	jEqual := 0
	if telemetry.Equal(t1.Sim(), t4.Sim()) {
		jEqual = 1
	}
	sc := opts.scales()[0]
	t4.Append("j1-vs-j4", sc.MeshDesc, sc.Ranks, 0.0, 0.0, jEqual)
	return t4, nil
}

// differentialTable runs the pair campaign once under the given options and
// tabulates the per-pair equality verdicts. Runs always collect metrics: a
// pair only counts as equal if the two sides' sim-plane metric snapshots are
// byte-identical too. Host-plane metrics are excluded by construction —
// SimSnapshot never contains them — so wall-clock-dependent series can never
// fail (or mask a failure of) the differential audit.
func differentialTable(opts Options) (*telemetry.Table, error) {
	sc := opts.scales()[0]
	steps := opts.steps()
	var specs []harness.Spec[*driver.Result]
	for _, p := range differentialPairs {
		for side, pol := range []placement.Policy{p.A, p.B} {
			cfg := sedovConfig(sc, pol, steps, opts.Seed)
			cfg.Paranoid = true // the audit campaign always runs paranoid
			cfg.Metrics = &metrics.Config{}
			specs = append(specs, opts.sedovSpec(fmt.Sprintf("%s/%d", p.ID, side), cfg))
		}
	}
	results, err := runCampaign(opts, "differential", specs)
	if err != nil {
		return nil, err
	}

	t := telemetry.NewTable(
		telemetry.StrCol("pair"), telemetry.StrCol("mesh"), telemetry.IntCol("ranks"),
		telemetry.FloatCol("makespan_a"), telemetry.FloatCol("makespan_b"),
		telemetry.IntCol("equal"),
	)
	for i, p := range differentialPairs {
		a, b := results[2*i], results[2*i+1]
		equal := 0
		if a.Makespan == b.Makespan && a.Census == b.Census && a.FinalBlocks == b.FinalBlocks &&
			telemetry.Equal(a.Metrics.Reg.SimSnapshot(), b.Metrics.Reg.SimSnapshot()) {
			equal = 1
		}
		t.Append(p.ID, sc.MeshDesc, sc.Ranks, a.Makespan, b.Makespan, equal)
	}
	return t, nil
}
