package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/metrics"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
)

// metricsCampaign builds a small metered Sedov campaign under opts and
// returns each run's sim-plane snapshot render, in spec order.
func metricsCampaign(t *testing.T, opts Options) []string {
	t.Helper()
	sc := QuickScale
	var specs []harness.Spec[*driver.Result]
	for i, pol := range []placement.Policy{placement.LPT{}, placement.Baseline{}, placement.CDP{}} {
		cfg := sedovConfig(sc, pol, 10, opts.Seed)
		specs = append(specs, opts.sedovSpec(fmt.Sprintf("m/%d", i), cfg))
	}
	results := runCampaign(opts, "metrics-identity", specs)
	out := make([]string, len(results))
	for i, res := range results {
		if res.Metrics == nil {
			t.Fatalf("run %d: metrics enabled but Result.Metrics nil", i)
		}
		out[i] = res.Metrics.Reg.SimSnapshot().Render(0)
	}
	return out
}

// TestMetricsParallelIdentity: every run's simulated-plane snapshot must be
// byte-identical between -j 1 and -j 4 — worker scheduling must not be able
// to perturb the metric surface, exactly like the result tables.
func TestMetricsParallelIdentity(t *testing.T) {
	run := func(workers int) []string {
		opts := Options{Quick: true, Seed: 11,
			Exec: harness.Exec{Workers: workers, Metrics: metrics.NewCampaign()}}
		return metricsCampaign(t, opts)
	}
	serial, parallel := run(1), run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("run %d: sim-plane snapshot differs between -j 1 and -j 4\n--- j=1 ---\n%s\n--- j=4 ---\n%s",
				i, serial[i], parallel[i])
		}
	}
}

// TestExecMetricsReachesEveryCampaign: Exec.Metrics is the one campaign
// sink. A campaign that calls harness.Run itself (Fig7b) and a driver
// campaign through runCampaign both advance the /statusz run counts, and the
// driver runs build registries that reach the aggregate.
func TestExecMetricsReachesEveryCampaign(t *testing.T) {
	camp := metrics.NewCampaign()
	opts := Options{Quick: true, Seed: 11, Exec: harness.Exec{Workers: 2, Metrics: camp}}

	Fig7b(opts) // 2 scales x 3 distributions
	st := camp.StatusNow()
	if st.AllDone != 6 || st.AllTotal != 6 || st.Campaign != "fig7b" {
		t.Fatalf("after fig7b: campaign %q, %d/%d runs done; want fig7b, 6/6", st.Campaign, st.AllDone, st.AllTotal)
	}
	if st.LaneEvents+st.HeapEvents != 0 {
		t.Fatalf("fig7b runs no simulation, yet the aggregate holds %d queued events", st.LaneEvents+st.HeapEvents)
	}

	metricsCampaign(t, opts) // 3 driver runs
	st = camp.StatusNow()
	if st.AllDone != 9 || st.AllTotal != 9 || st.Campaign != "metrics-identity" {
		t.Fatalf("after the driver campaign: campaign %q, %d/%d runs done; want metrics-identity, 9/9",
			st.Campaign, st.AllDone, st.AllTotal)
	}
	if st.LaneEvents+st.HeapEvents == 0 {
		t.Fatal("the driver runs' registries never reached the campaign aggregate")
	}
}

// TestMetricsHostPlaneExcluded: runs that differ only in shard count have
// diverging host-plane scheduler metrics but identical sim planes — and the
// differential equality check consumes SimSnapshot, so host-plane divergence
// can never fail (or mask a failure of) the audit.
func TestMetricsHostPlaneExcluded(t *testing.T) {
	opts := Options{Quick: true, Seed: 11}
	run := func(shards int) *metrics.RunSet {
		cfg := sedovConfig(QuickScale, placement.LPT{}, 10, opts.Seed)
		cfg.Shards = shards
		cfg.Metrics = &metrics.Config{}
		res, err := driver.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	a, b := run(1), run(2)
	if !telemetry.Equal(a.Reg.SimSnapshot(), b.Reg.SimSnapshot()) {
		t.Fatal("sim-plane snapshots must not depend on shard count")
	}
	if telemetry.Equal(a.Reg.Snapshot(), b.Reg.Snapshot()) {
		t.Fatal("expected host-plane scheduler metrics to differ between 1 and 2 shards; the exclusion test is vacuous")
	}
}

// TestMetricsDirDump: MetricsDir writes one snapshot colfile per run, named
// like the trace span dumps.
func TestMetricsDirDump(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Quick: true, Seed: 11, MetricsDir: dir,
		Exec: harness.Exec{Workers: 2}}
	metricsCampaign(t, opts)
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("metrics-identity--m_%d.col", i))
		if fi, err := os.Stat(p); err != nil {
			t.Errorf("missing metrics dump %s: %v", p, err)
		} else if fi.Size() == 0 {
			t.Errorf("empty metrics dump %s", p)
		}
	}
}
