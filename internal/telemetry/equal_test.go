package telemetry

import (
	"math"
	"testing"
	"unsafe"
)

func pairOfTables() (*Table, *Table) {
	mk := func(wall1, wall2 float64) *Table {
		t := NewTable(IntCol("ranks"), StrCol("policy"), FloatCol("makespan"), FloatCol("wall_ms").Host())
		t.Append(64, "lpt", 1.25, wall1)
		t.Append(128, "cpl50", 0.75, wall2)
		return t
	}
	return mk(3.5, 9.25), mk(4.75, 120.0)
}

// TestSimWallOnlyDiff is the regression the plane exists for: two runs of
// the same campaign differ only in host-plane cells and must count as
// identical — while a simulated-value diff must still fail.
func TestSimWallOnlyDiff(t *testing.T) {
	a, b := pairOfTables()
	if Equal(a, b) {
		t.Fatal("tables with differing wall_ms compared equal in full")
	}
	if !Equal(a.Sim(), b.Sim()) {
		t.Fatal("wall-only diff failed the sim-plane comparison")
	}
	// A data diff in a sim column still fails.
	b.cols[2].Floats[1] = 0.75000001
	if Equal(a.Sim(), b.Sim()) {
		t.Fatal("sim-plane comparison missed a simulated-value diff")
	}
}

func TestEqualSchemaAndValueMismatches(t *testing.T) {
	a, _ := pairOfTables()
	short := NewTable(IntCol("ranks"))
	short.Append(64)
	if Equal(a, short) {
		t.Fatal("different schemas compared equal")
	}
	b, _ := pairOfTables()
	b.cols[1].IDs[0] = b.cols[1].IDs[1] // policy "lpt" -> "cpl50"
	if Equal(a.Without("wall_ms"), b.Without("wall_ms")) {
		t.Fatal("string diff compared equal")
	}
	c, _ := pairOfTables()
	c.cols[0].Ints[0] = 65
	if Equal(a.Sim(), c.Sim()) {
		t.Fatal("int diff compared equal")
	}
	// The plane is part of the schema: the same cells under a column that
	// changed plane are a different table.
	d := NewTable(IntCol("ranks").Host())
	d.Append(64)
	if Equal(short, d) {
		t.Fatal("tables differing only in one column's plane compared equal")
	}
}

// NaN cells signal an upstream bug; they must never satisfy an identity
// check, even against another NaN.
func TestEqualRejectsNaN(t *testing.T) {
	a, _ := pairOfTables()
	b, _ := pairOfTables()
	a.cols[2].Floats[0] = math.NaN()
	b.cols[2].Floats[0] = math.NaN()
	if Equal(a.Sim(), b.Sim()) {
		t.Fatal("NaN cells satisfied the identity check")
	}
}

// TestSimHostColumnCases: Sim drops exactly the host-plane columns — none
// from an all-sim table, every one from an all-host table — and a host
// column on one side only still aligns the sim views, while the same
// column declared sim on one side does not.
func TestSimHostColumnCases(t *testing.T) {
	a, _ := pairOfTables()
	noHost := NewTable(IntCol("ranks"), StrCol("policy"), FloatCol("makespan"))
	noHost.Append(64, "lpt", 1.25)
	noHost.Append(128, "cpl50", 0.75)
	if got := noHost.Sim(); !Equal(got, noHost) || noHost.HostCols() != nil {
		t.Fatal("Sim of a table with no host column is not the table")
	}
	if got := a.HostCols(); len(got) != 1 || got[0] != "wall_ms" {
		t.Fatalf("HostCols %v, want [wall_ms]", got)
	}
	allHost := NewTable(FloatCol("wall_ms").Host(), FloatCol("heap_mb").Host())
	allHost.Append(3.5, 12.0)
	if got := allHost.Sim(); got.NumCols() != 0 || got.NumRows() != 1 {
		t.Fatalf("Sim of an all-host table is %dx%d, want 1x0", got.NumRows(), got.NumCols())
	}
	if !Equal(a.Sim(), noHost.Sim()) {
		t.Fatal("a host column on one side only broke the sim-plane comparison")
	}
	simWall := NewTable(IntCol("ranks"), StrCol("policy"), FloatCol("makespan"), FloatCol("wall_ms"))
	simWall.Append(64, "lpt", 1.25, 3.5)
	simWall.Append(128, "cpl50", 0.75, 9.25)
	if Equal(a.Sim(), simWall.Sim()) {
		t.Fatal("a column that is sim on one side only compared equal")
	}
}

// TestColSpecSize: the plane rides in ColSpec's padding, so schemas cost
// what they did before it.
func TestColSpecSize(t *testing.T) {
	if got := unsafe.Sizeof(ColSpec{}); got != 24 {
		t.Fatalf("ColSpec is %d bytes, want 24", got)
	}
}

func TestWithoutPanicsOnUnknownColumn(t *testing.T) {
	a, _ := pairOfTables()
	defer func() {
		if recover() == nil {
			t.Fatal("Without with a stale column name did not panic")
		}
	}()
	a.Without("no_such_col")
}

func TestWithoutPreservesOrderAndRows(t *testing.T) {
	a, _ := pairOfTables()
	got := a.Without("policy")
	want := []string{"ranks", "makespan", "wall_ms"}
	sch := got.Schema()
	if len(sch) != len(want) {
		t.Fatalf("schema %v, want %v", sch, want)
	}
	for i, s := range sch {
		if s.Name != want[i] {
			t.Fatalf("schema %v, want %v", sch, want)
		}
	}
	if got.NumRows() != a.NumRows() {
		t.Fatalf("rows %d, want %d", got.NumRows(), a.NumRows())
	}
}
