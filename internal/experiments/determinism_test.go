package experiments

import (
	"slices"
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
// and is only meaningful — on its sim-plane columns.
func TestParallelMatchesSequentialFig7c(t *testing.T) {
	tab := func(workers int) *telemetry.Table {
		opts := Options{Quick: true, Seed: 42, Exec: harness.Exec{Workers: workers}}
		return table(t)(Fig7c(opts))
	}
	serial, parallel := tab(1), tab(3)
	if !telemetry.Equal(serial.Sim(), parallel.Sim()) {
		t.Fatalf("Fig7c sim-plane columns differ between -j 1 and -j 3:\n--- j=1 ---\n%s\n--- j=3 ---\n%s",
			serial.Render(0), parallel.Render(0))
	}
	// Sim must drop exactly the wall-clock columns: the plane must not
	// have hidden a whole-schema mismatch.
	if got, want := serial.NumCols()-serial.Sim().NumCols(), 2; got != want {
		t.Fatalf("Sim dropped %d columns, want %d", got, want)
	}
	if got, want := serial.HostCols(), []string{"placement_ms", "within_50ms_budget"}; !slices.Equal(got, want) {
		t.Fatalf("host-plane columns %v, want %v", got, want)
	}
}

// TestNondetColsSet pins the derived list to the names the bench module's
// digest mask has always dropped: a column that leaves the host plane, or a
// new one that joins it, moves every bench digest and must be deliberate.
func TestNondetColsSet(t *testing.T) {
	got := slices.Sorted(slices.Values(NondetCols))
	want := []string{"alloc_mb", "heap_mb", "mallocs", "placement_ms", "wall_ms", "within_50ms_budget"}
	if !slices.Equal(got, want) {
		t.Fatalf("NondetCols %v, want the set %v", NondetCols, want)
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
