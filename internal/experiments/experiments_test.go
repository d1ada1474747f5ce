package experiments

import (
	"testing"
)

var quick = Options{Quick: true, Seed: 1}

func TestFig1TopTuningRestoresCorrelation(t *testing.T) {
	tab := Fig1Top(quick)
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	configs := tab.Strings("config")
	corrs := tab.Floats("corr")
	var untuned, tuned float64
	for i, c := range configs {
		if c == "untuned" {
			untuned = corrs[i]
		} else {
			tuned = corrs[i]
		}
	}
	if tuned <= untuned {
		t.Fatalf("tuning did not improve correlation: untuned=%.3f tuned=%.3f", untuned, tuned)
	}
	if tuned < 0.5 {
		t.Fatalf("tuned correlation %.3f too weak to ground placement", tuned)
	}
}

func TestFig1BottomDrainQueueRemovesSpikes(t *testing.T) {
	tab := Fig1Bottom(quick)
	var spikesBefore, spikesAfter int64
	var syncBefore, syncAfter float64
	for r := 0; r < tab.NumRows(); r++ {
		if tab.ValueAt("config", r) == "no-drain" {
			spikesBefore = tab.Ints("spikes_gt_1ms")[r]
			syncBefore = tab.Floats("mean_sync_per_step_ms")[r]
		} else {
			spikesAfter = tab.Ints("spikes_gt_1ms")[r]
			syncAfter = tab.Floats("mean_sync_per_step_ms")[r]
		}
	}
	if spikesBefore == 0 {
		t.Fatal("faulty fabric produced no wait spikes")
	}
	if spikesAfter != 0 {
		t.Fatalf("drain queue left %d spikes", spikesAfter)
	}
	if syncAfter >= syncBefore {
		t.Fatalf("drain queue did not cut sync: %.3f -> %.3f ms/step", syncBefore, syncAfter)
	}
}

func TestFig2HealthPruningRecoversRuntime(t *testing.T) {
	tab := Fig2(quick)
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	var ratio, speedup, syncShareThrottled float64
	for r := 0; r < tab.NumRows(); r++ {
		if tab.ValueAt("config", r) == "throttled" {
			ratio = tab.Floats("throttled_compute_ratio")[r]
			syncShareThrottled = tab.Floats("sync_share")[r]
		} else {
			speedup = tab.Floats("speedup_vs_throttled")[r]
		}
	}
	if ratio < 3 {
		t.Fatalf("throttled compute ratio %.2f, want ~4 (Fig 2)", ratio)
	}
	if syncShareThrottled < 0.5 {
		t.Fatalf("sync share %.2f under throttling, want dominant (paper: >70%%)", syncShareThrottled)
	}
	if speedup < 1.5 {
		t.Fatalf("health pruning speedup %.2f, want substantial (paper: ~4x)", speedup)
	}
}

func TestFig3StagesReduceVariance(t *testing.T) {
	tab := Fig3(quick)
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	cv := tab.Floats("comm_cv")
	mean := tab.Floats("mean_comm_ms_per_step")
	// Stage order: untuned, sends-first, sends-first+queue-tuned.
	if mean[1] >= mean[0] {
		t.Fatalf("send priority did not cut comm time: %.3f -> %.3f", mean[0], mean[1])
	}
	if cv[2] >= cv[0] {
		t.Fatalf("full tuning did not cut comm CV: %.3f -> %.3f", cv[0], cv[2])
	}
	corr := tab.Floats("corr")
	if corr[2] <= corr[0] {
		t.Fatalf("full tuning did not improve correlation: %.3f -> %.3f", corr[0], corr[2])
	}
}

func TestFig4TwoRankPrinciple(t *testing.T) {
	tab := Fig4(quick)
	for r := 0; r < tab.NumRows(); r++ {
		if tab.Ints("principle_holds")[r] != 1 {
			t.Fatalf("two-rank principle violated in window %v",
				tab.ValueAt("window", r))
		}
		if tab.Ints("ranks_on_path")[r] > 2 {
			t.Fatalf("path involves %d ranks", tab.Ints("ranks_on_path")[r])
		}
	}
	// Send priority must shorten the schedule windows.
	var slow, fast float64
	for r := 0; r < tab.NumRows(); r++ {
		switch tab.ValueAt("window", r) {
		case "schedule-compute-first":
			slow = tab.Floats("makespan_ms")[r]
		case "schedule-sends-first":
			fast = tab.Floats("makespan_ms")[r]
		}
	}
	if fast >= slow {
		t.Fatalf("sends-first makespan %.3f not below compute-first %.3f", fast, slow)
	}
}

func TestTableIShape(t *testing.T) {
	tab := TableI(quick)
	if tab.NumRows() != 1 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	nInit := tab.Ints("n_initial")[0]
	nFinal := tab.Ints("n_final")[0]
	if nInit != int64(QuickScale.Ranks) {
		t.Fatalf("n_initial = %d, want one block per rank (%d)", nInit, QuickScale.Ranks)
	}
	if nFinal <= nInit {
		t.Fatalf("no block growth: %d -> %d", nInit, nFinal)
	}
	if nFinal > 6*nInit {
		t.Fatalf("block growth explosion: %d -> %d", nInit, nFinal)
	}
	if tab.Ints("t_lb")[0] == 0 {
		t.Fatal("no load-balancing invocations")
	}
}

func TestFig6QualitativeFindings(t *testing.T) {
	a, b, c := Fig6(quick)
	// Finding 2: every CPLX variant beats baseline.
	for r := 0; r < a.NumRows(); r++ {
		pol := a.Strings("policy")[r]
		if pol == "baseline" {
			continue
		}
		if imp := a.Floats("improvement_pct")[r]; imp <= 0 {
			t.Errorf("%s improvement %.2f%%, want positive", pol, imp)
		}
	}
	// Compute flat across policies (work is invariant to placement).
	comp := a.Floats("compute_s")
	for r := 1; r < a.NumRows(); r++ {
		rel := comp[r] / comp[0]
		if rel < 0.9 || rel > 1.1 {
			t.Errorf("compute varies with policy: %.3f vs %.3f", comp[r], comp[0])
		}
	}
	// Finding 3: comm increases and sync decreases with X.
	commOf := map[string]float64{}
	syncOf := map[string]float64{}
	for r := 0; r < b.NumRows(); r++ {
		commOf[b.Strings("policy")[r]] = b.Floats("comm_vs_baseline")[r]
		syncOf[b.Strings("policy")[r]] = b.Floats("sync_vs_baseline")[r]
	}
	if commOf["cpl100"] <= commOf["cpl0"] {
		t.Errorf("comm did not grow with X: cpl0=%.3f cpl100=%.3f", commOf["cpl0"], commOf["cpl100"])
	}
	if syncOf["cpl100"] >= syncOf["cpl0"] {
		t.Errorf("sync did not fall with X: cpl0=%.3f cpl100=%.3f", syncOf["cpl0"], syncOf["cpl100"])
	}
	// Finding 4: remote share rises with X.
	remoteOf := map[string]float64{}
	for r := 0; r < c.NumRows(); r++ {
		remoteOf[c.Strings("policy")[r]] = c.Floats("remote_share")[r]
	}
	if remoteOf["cpl100"] <= remoteOf["cpl0"] {
		t.Errorf("remote share did not grow with X: %.3f -> %.3f",
			remoteOf["cpl0"], remoteOf["cpl100"])
	}
}

func TestFig7aProducesLatencies(t *testing.T) {
	tab := Fig7a(quick)
	if tab.NumRows() != 5 { // one quick scale × 5 X values
		t.Fatalf("rows = %d", tab.NumRows())
	}
	remote := tab.Floats("remote_share")
	if remote[4] <= remote[0] {
		t.Fatalf("commbench remote share flat: %.3f -> %.3f", remote[0], remote[4])
	}
	for r := 0; r < tab.NumRows(); r++ {
		if lat := tab.Floats("mean_round_ms")[r]; lat <= 0 || lat > 10 {
			t.Fatalf("round latency %.3f ms out of range", lat)
		}
	}
}

func TestFig7bLPTBestAndCPL25CapturesBulk(t *testing.T) {
	tab := Fig7b(quick)
	// For each (ranks, dist): makespan(cpl100) <= makespan(cpl0), and
	// cpl25 captures most of the gap (paper: "bulk of the benefits").
	type key struct {
		ranks int64
		dist  string
	}
	ms := map[key]map[string]float64{}
	for r := 0; r < tab.NumRows(); r++ {
		k := key{tab.Ints("ranks")[r], tab.Strings("dist")[r]}
		if ms[k] == nil {
			ms[k] = map[string]float64{}
		}
		ms[k][tab.Strings("policy")[r]] = tab.Floats("norm_makespan")[r]
	}
	for k, m := range ms {
		if m["cpl100"] > m["cpl0"]+1e-9 {
			t.Errorf("%v: LPT worse than CDP: %.4f vs %.4f", k, m["cpl100"], m["cpl0"])
		}
		if m["baseline"] < m["cpl0"]-1e-9 {
			t.Errorf("%v: baseline %.4f beats CDP %.4f", k, m["baseline"], m["cpl0"])
		}
		// "CPL0 and CPL25 capture the bulk of the benefits": measured
		// against the count-balancing baseline.
		gap := m["baseline"] - m["cpl100"]
		if gap > 0.05 {
			captured := (m["baseline"] - m["cpl25"]) / gap
			if captured < 0.6 {
				t.Errorf("%v: cpl25 captured only %.0f%% of the benefit", k, 100*captured)
			}
		}
	}
}

// TestFig7cWithinBudget checks the table's structure only: one cpl50 row per
// quick scale, a positive measurement, and a budget flag that agrees with
// the measurement beside it. Whether placement fits the paper's 50 ms is a
// wall-clock question and belongs to the repo benchmark
// (placement.cpl50_*_ms in BENCHMARK.json), not to a unit test.
func TestFig7cWithinBudget(t *testing.T) {
	tab := Fig7c(quick)
	want := []int64{512, 2048, 8192}
	if tab.NumRows() != len(want) {
		t.Fatalf("%d rows, want one per quick scale %v:\n%s", tab.NumRows(), want, tab.Render(0))
	}
	for r, ranks := range want {
		if got, pol := tab.Ints("ranks")[r], tab.Strings("policy")[r]; got != ranks || pol != "cpl50" {
			t.Errorf("row %d is (%d ranks, %s), want (%d ranks, cpl50)", r, got, pol, ranks)
		}
		ms, within := tab.Floats("placement_ms")[r], tab.Ints("within_50ms_budget")[r]
		if ms <= 0 {
			t.Errorf("%d ranks: placement_ms = %v, want a positive measurement", ranks, ms)
		}
		if (within == 1) != (ms < 50) || within < 0 || within > 1 {
			t.Errorf("%d ranks: within_50ms_budget = %d beside placement_ms = %v", ranks, within, ms)
		}
	}
}

func TestLPTvsILPNoLargeGap(t *testing.T) {
	tab := LPTvsILP(quick)
	for r := 0; r < tab.NumRows(); r++ {
		if gap := tab.Floats("gap_pct")[r]; gap > 5 {
			t.Errorf("solver beat LPT by %.1f%% on %d/%d — LPT quality claim violated",
				gap, tab.Ints("blocks")[r], tab.Ints("ranks")[r])
		}
		if gap := tab.Floats("gap_pct")[r]; gap < -1e-9 {
			t.Errorf("solver worse than LPT (gap %.3f%%)", tab.Floats("gap_pct")[r])
		}
	}
}

func TestFig6CoolingDirectionallySimilar(t *testing.T) {
	tab := Fig6Cooling(quick)
	imp := map[string]float64{}
	for r := 0; r < tab.NumRows(); r++ {
		if tab.ValueAt("policy", r) == "cpl50" {
			imp[tab.Strings("problem")[r]] = tab.Floats("improvement_pct")[r]
		}
	}
	if imp["cooling"] <= -3 {
		t.Errorf("cooling improvement %.2f%% strongly negative", imp["cooling"])
	}
	if imp["sedov"] <= 0 {
		t.Errorf("sedov improvement %.2f%%, want positive", imp["sedov"])
	}
}

func TestAblations(t *testing.T) {
	tab := Ablations(quick)
	// Cost-source: measured costs must beat unit costs end to end.
	var measured, unit float64
	var bothEnds, topOnly, cdpOnly float64
	for r := 0; r < tab.NumRows(); r++ {
		switch tab.Strings("variant")[r] {
		case "measured-costs":
			measured = tab.Floats("improvement_pct")[r]
		case "unit-costs":
			unit = tab.Floats("improvement_pct")[r]
		case "cpl50":
			bothEnds = tab.Floats("makespan_norm")[r]
		case "cpl50-toponly":
			topOnly = tab.Floats("makespan_norm")[r]
		case "cpl0":
			cdpOnly = tab.Floats("makespan_norm")[r]
		}
	}
	if measured <= unit {
		t.Errorf("measured costs (%.2f%%) did not beat unit costs (%.2f%%)", measured, unit)
	}
	// Both-ends must beat top-only, which should sit near the CDP seed.
	if bothEnds >= topOnly {
		t.Errorf("both-ends makespan %.4f not below top-only %.4f", bothEnds, topOnly)
	}
	if topOnly > cdpOnly+1e-9 {
		t.Errorf("top-only (%.4f) worse than its own CDP seed (%.4f)", topOnly, cdpOnly)
	}
}

func TestLBIntervalSweep(t *testing.T) {
	tab := LBIntervalSweep(quick)
	if tab.NumRows() != 4 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// Re-placing on every mesh change must beat never re-placing
	// (inheritance-only), with identical physics work.
	var imp1 float64
	for r := 0; r < tab.NumRows(); r++ {
		if tab.Ints("placement_every")[r] == 1 {
			imp1 = tab.Floats("improvement_pct")[r]
		}
	}
	if imp1 <= 0 {
		t.Fatalf("always-re-place improvement = %.2f%%, want positive", imp1)
	}
}

func TestHilbertOrderStudy(t *testing.T) {
	tab := HilbertOrderStudy(quick)
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	var morton, hilbert float64
	for r := 0; r < tab.NumRows(); r++ {
		switch tab.Strings("ordering")[r] {
		case "morton":
			morton = tab.Floats("node_locality")[r]
		case "hilbert":
			hilbert = tab.Floats("node_locality")[r]
		}
	}
	// Both orderings must keep a nontrivial share of neighbors node-local;
	// Hilbert is usually at least competitive.
	if morton <= 0.05 || hilbert <= 0.05 {
		t.Fatalf("degenerate locality: morton=%.3f hilbert=%.3f", morton, hilbert)
	}
	if hilbert < 0.8*morton {
		t.Fatalf("hilbert node locality %.3f far below morton %.3f", hilbert, morton)
	}
}

func TestNeighborhoodCollectives(t *testing.T) {
	tab := NeighborhoodCollectives(quick)
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	var p2pMsgs, aggMsgs int64
	var p2pLat, aggLat float64
	for r := 0; r < tab.NumRows(); r++ {
		switch tab.Strings("mode")[r] {
		case "p2p":
			p2pMsgs = tab.Ints("msgs_per_round")[r]
			p2pLat = tab.Floats("mean_round_ms")[r]
		case "aggregated":
			aggMsgs = tab.Ints("msgs_per_round")[r]
			aggLat = tab.Floats("mean_round_ms")[r]
		}
	}
	if aggMsgs >= p2pMsgs {
		t.Fatalf("aggregation did not reduce message count: %d vs %d", aggMsgs, p2pMsgs)
	}
	// With per-message fabric overheads, fewer messages must not be
	// dramatically slower; typically they are faster.
	if aggLat > 1.5*p2pLat {
		t.Fatalf("aggregated round %.3f ms much slower than p2p %.3f ms", aggLat, p2pLat)
	}
}

func TestCommbenchAPI(t *testing.T) {
	tab, err := Commbench(CommbenchConfig{
		Ranks: 64, Policies: []string{"baseline", "cpl50"}, Meshes: 1, Rounds: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// Error paths.
	if _, err := Commbench(CommbenchConfig{Ranks: 100, Policies: []string{"cpl0"}, Meshes: 1, Rounds: 4}); err == nil {
		t.Error("non-power-of-two rank count accepted")
	}
	if _, err := Commbench(CommbenchConfig{Ranks: 64, Policies: []string{"bogus"}, Meshes: 1, Rounds: 4}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Commbench(CommbenchConfig{Ranks: 64, Policies: []string{"cpl0"}, Meshes: 0, Rounds: 4}); err == nil {
		t.Error("zero meshes accepted")
	}
}

func TestCubeDims(t *testing.T) {
	cases := map[int][3]int{
		1:    {1, 1, 1},
		8:    {2, 2, 2},
		64:   {4, 4, 4},
		128:  {8, 4, 4},
		2048: {16, 16, 8},
	}
	for ranks, want := range cases {
		got, err := cubeDims(ranks)
		if err != nil {
			t.Fatalf("cubeDims(%d): %v", ranks, err)
		}
		if got[0]*got[1]*got[2] != ranks {
			t.Fatalf("cubeDims(%d) = %v", ranks, got)
		}
		_ = want
	}
	if _, err := cubeDims(100); err == nil {
		t.Error("cubeDims(100) accepted")
	}
}
