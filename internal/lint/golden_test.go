package lint

import "testing"

// TestRealModuleClean is the golden assertion behind `make lint` and the CI
// lint job: the repository itself carries zero unwaived diagnostics. Any
// reintroduced wall-clock call in the deterministic core, unsorted map
// emission, leaked request, non-exhaustive kind switch, or
// stale waiver fails this test (and `amrlint ./...`) immediately.
func TestRealModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	set, err := LoadSet(LoadConfig{Dir: "../.."})
	if err != nil {
		t.Fatal(err)
	}
	diags, waivers := Run(set, Analyzers())
	for _, d := range diags {
		t.Errorf("unwaived diagnostic: %s", d.String())
	}
	// The waiver register only goes down (ROADMAP item 4e): 19 at PR 17.
	// Lower this bound when a waiver is retired; never raise it.
	if len(waivers) > 19 {
		t.Errorf("%d live //lint:ignore waivers, the register allows 19: retire one before adding one", len(waivers))
	}
	for _, w := range waivers {
		if w.Rule == "" || w.Reason == "" || w.File == "" || w.Line == 0 {
			t.Errorf("incomplete waiver record: %+v", w)
		}
	}
}
