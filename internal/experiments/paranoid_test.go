package experiments

import (
	"os"
	"testing"

	"amrtools/internal/check"
)

// TestMain forces paranoid mode on for every simulation this package runs:
// the whole quick experiment suite becomes a violation-free audit pass on
// top of its table assertions.
func TestMain(m *testing.M) {
	check.Force(true)
	os.Exit(m.Run())
}

func TestDifferentialIdentitiesHold(t *testing.T) {
	tbl := table(t)(Differential(Options{Quick: true, Seed: 5}))
	if tbl.NumRows() != len(differentialPairs)+1 {
		t.Fatalf("differential rows = %d, want %d", tbl.NumRows(), len(differentialPairs)+1)
	}
	pairs := tbl.Strings("pair")
	for i, eq := range tbl.Ints("equal") {
		if eq != 1 {
			t.Errorf("differential pair %s: runs diverged\n%s", pairs[i], tbl.Render(0))
		}
	}
}
