package experiments

import (
	"errors"
	"testing"

	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
)

var quick = Options{Quick: true, Seed: 1}

// table fails t on a runner's error and otherwise returns its table:
// table(t)(Fig7c(quick)).
func table(t *testing.T) func(*telemetry.Table, error) *telemetry.Table {
	return func(tab *telemetry.Table, err error) *telemetry.Table {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
}

// TestFig7cWithinBudget checks the table's structure only: one cpl50 row per
// quick scale, a positive measurement, and a budget flag that agrees with
// the measurement beside it. Whether placement fits the paper's 50 ms is a
// wall-clock question and belongs to the repo benchmark
// (placement.cpl50_*_ms in BENCHMARK.json), not to a unit test.
func TestFig7cWithinBudget(t *testing.T) {
	tab := table(t)(Fig7c(quick))
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
		if got != want {
			t.Errorf("cubeDims(%d) = %v, want %v", ranks, got, want)
		}
	}
	if _, err := cubeDims(100); err == nil {
		t.Error("cubeDims(100) accepted")
	}
}

// panicky is a test-only policy whose Assign panics.
type panicky struct{}

func (panicky) Name() string { return "panicky" }

func (panicky) Assign([]float64, int) placement.Assignment { panic("panicky: no placement") }

// TestRunCampaignNamesPanickingSpec: a policy that panics inside one driver
// run fails the campaign with the *harness.PanicError naming that spec; the
// panic does not escape runCampaign.
func TestRunCampaignNamesPanickingSpec(t *testing.T) {
	opts := Options{Quick: true, Seed: 3, Exec: harness.Exec{Workers: 2}}
	var specs []harness.Spec[*driver.Result]
	for _, pol := range []placement.Policy{placement.Baseline{}, panicky{}, placement.LPT{}} {
		specs = append(specs, opts.sedovSpec(pol.Name(), sedovConfig(QuickScale, pol, 6, opts.Seed)))
	}
	results, err := runCampaign(opts, "panicky", specs)
	var pe *harness.PanicError
	if results != nil || !errors.As(err, &pe) || pe.ID != "panicky" || pe.Value != "panicky: no placement" {
		t.Fatalf("runCampaign = %v, %v; want the *harness.PanicError of spec panicky", results, err)
	}
}
