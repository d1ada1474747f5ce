package telemetry

import (
	"math"
	"testing"
)

func pairOfTables() (*Table, *Table) {
	mk := func(wall1, wall2 float64) *Table {
		t := NewTable(IntCol("ranks"), StrCol("policy"), FloatCol("makespan"), FloatCol("wall_ms"))
		t.Append(64, "lpt", 1.25, wall1)
		t.Append(128, "cpl50", 0.75, wall2)
		return t
	}
	return mk(3.5, 9.25), mk(4.75, 120.0)
}

// TestEqualMaskedWallOnlyDiff is the regression the mask exists for: two
// runs of the same campaign differ only in wall-clock cells and must count
// as identical — while a virtual-time diff must still fail.
func TestEqualMaskedWallOnlyDiff(t *testing.T) {
	a, b := pairOfTables()
	if Equal(a, b) {
		t.Fatal("tables with differing wall_ms compared equal unmasked")
	}
	if !EqualMasked(a, b, "wall_ms") {
		t.Fatal("wall-only diff failed the masked comparison")
	}
	// A data diff in a kept column still fails under the mask.
	b.cols[2].Floats[1] = 0.75000001
	if EqualMasked(a, b, "wall_ms") {
		t.Fatal("masked comparison missed a virtual-time diff")
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
	if EqualMasked(a, c, "wall_ms") {
		t.Fatal("int diff compared equal")
	}
}

// NaN cells signal an upstream bug; they must never satisfy an identity
// check, even against another NaN.
func TestEqualRejectsNaN(t *testing.T) {
	a, _ := pairOfTables()
	b, _ := pairOfTables()
	a.cols[2].Floats[0] = math.NaN()
	b.cols[2].Floats[0] = math.NaN()
	if EqualMasked(a, b, "wall_ms") {
		t.Fatal("NaN cells satisfied the identity check")
	}
}

// One shared mask list serves every campaign: names a table lacks are
// skipped for it, but a column present on only one side still fails (the
// masked schemas differ).
func TestEqualMaskedToleratesAbsentMaskNames(t *testing.T) {
	a, b := pairOfTables()
	if !EqualMasked(a, b, "wall_ms", "placement_ms", "heap_mb") {
		t.Fatal("mask names absent from both tables broke the comparison")
	}
	onlyB := NewTable(IntCol("ranks"), StrCol("policy"), FloatCol("makespan"))
	onlyB.Append(64, "lpt", 1.25)
	onlyB.Append(128, "cpl50", 0.75)
	if !EqualMasked(a, onlyB, "wall_ms") {
		t.Fatal("masking wall_ms out of one side should align the schemas")
	}
	if EqualMasked(a, onlyB, "placement_ms") {
		t.Fatal("unmasked schema mismatch compared equal")
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
