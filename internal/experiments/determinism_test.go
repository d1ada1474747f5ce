package experiments

import (
	"strings"
	"testing"

	"amrtools/internal/harness"
	"amrtools/internal/telemetry"
)

// TestParallelMatchesSequential is the regression guarantee the harness
// makes to every runner: fanning a campaign out over N workers produces
// byte-for-byte the tables a sequential run produces. Fig6 is the deepest
// campaign (scale × policy product through the full DES driver), so it
// exercises result re-ordering hardest.
func TestParallelMatchesSequential(t *testing.T) {
	render := func(workers int) string {
		opts := Options{Quick: true, Seed: 42, Exec: harness.Exec{Workers: workers}}
		a, b, c, err := Fig6(opts)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString(a.Render(0))
		sb.WriteString(b.Render(0))
		sb.WriteString(c.Render(0))
		return sb.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("Fig6 tables differ between -j 1 and -j 4:\n--- j=1 ---\n%s\n--- j=4 ---\n%s",
			serial, parallel)
	}
}

// TestParallelMatchesSequentialFig7c covers the campaign earlier identity
// tests had to skip: Fig 7c measures host wall clock (placement_ms and its
// budget verdict never reproduce), so its j1-vs-jN identity only holds —
// and is only meaningful — under the nondeterministic-column mask.
func TestParallelMatchesSequentialFig7c(t *testing.T) {
	tab := func(workers int) *telemetry.Table {
		opts := Options{Quick: true, Seed: 42, Exec: harness.Exec{Workers: workers}}
		return table(t)(Fig7c(opts))
	}
	serial, parallel := tab(1), tab(3)
	if !telemetry.EqualMasked(serial, parallel, NondetCols...) {
		t.Fatalf("Fig7c virtual-time columns differ between -j 1 and -j 3:\n--- j=1 ---\n%s\n--- j=3 ---\n%s",
			serial.Render(0), parallel.Render(0))
	}
	// The masked columns must be exactly the wall-clock ones: masking must
	// not have hidden a whole-schema mismatch.
	if got := len(serial.Schema()) - len(serial.Without("placement_ms", "within_50ms_budget").Schema()); got != 2 {
		t.Fatalf("expected exactly 2 wall columns masked, got %d", got)
	}
}

// TestParallelMatchesSequentialSharedProblemRegression pins the fig2 fix:
// a Config copied with `cfg2 := cfg1` shares the stateful physics.Problem
// pointer, so two concurrent specs would race on its RNG. Each spec must
// build its Problem from scratch.
func TestParallelMatchesSequentialSharedProblemRegression(t *testing.T) {
	render := func(workers int) string {
		opts := Options{Quick: true, Seed: 42, Exec: harness.Exec{Workers: workers}}
		return table(t)(Fig2(opts)).Render(0)
	}
	if serial, parallel := render(1), render(3); serial != parallel {
		t.Fatalf("Fig2 tables differ between -j 1 and -j 3:\n--- j=1 ---\n%s\n--- j=3 ---\n%s",
			serial, parallel)
	}
}

// TestParallelMatchesSequentialPresampledRNG covers the other determinism
// regime: campaigns whose specs share one RNG stream that the plan builder
// must pre-split (neighborhood) or pre-sample (lptilp) sequentially before
// fanning out.
func TestParallelMatchesSequentialPresampledRNG(t *testing.T) {
	render := func(workers int) string {
		opts := Options{Quick: true, Seed: 7, Exec: harness.Exec{Workers: workers}}
		return table(t)(NeighborhoodCollectives(opts)).Render(0)
	}
	if serial, parallel := render(1), render(3); serial != parallel {
		t.Fatalf("neighborhood tables differ between -j 1 and -j 3:\n--- j=1 ---\n%s\n--- j=3 ---\n%s",
			serial, parallel)
	}
}

func TestSuiteSelect(t *testing.T) {
	all, err := Select("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Suite()) {
		t.Fatalf("Select(\"\") returned %d experiments, want %d", len(all), len(Suite()))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("suite entry %q incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate suite id %q", e.ID)
		}
		ids[e.ID] = true
	}

	sel, err := Select("table1, fig6")
	if err != nil {
		t.Fatal(err)
	}
	// Suite order is preserved regardless of the order ids were given in.
	if len(sel) != 2 || sel[0].ID != "table1" || sel[1].ID != "fig6" {
		t.Fatalf("Select(\"table1, fig6\") = %v, want [table1 fig6] in suite order", sel)
	}

	if _, err := Select("fig6,bogus"); err == nil {
		t.Fatal("Select with unknown id did not error")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error %q does not name the unknown id", err)
	}
}
