package tql

import (
	"testing"

	"amrtools/internal/telemetry"
)

// TestPlannerPrunesRangeChunks: a closed range over a sorted column,
// `WHERE col >= lo AND col <= hi`, must skip every chunk whose zone map
// excludes it and decode only the rest.
func TestPlannerPrunesRangeChunks(t *testing.T) {
	// step is sorted; chunks of 50 rows → 10 chunks of distinct step ranges.
	src := telemetry.NewTable(telemetry.IntCol("step"), telemetry.FloatCol("v"))
	for i := 0; i < 500; i++ {
		src.Append(i, float64(i)*0.5)
	}
	r := fileFor(t, src, 50)
	q, err := Parse("SELECT * FROM t WHERE step >= 100 AND step <= 149")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bind(q, r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.NumChunks(); i++ {
		want := classNone
		if i == 2 { // rows 100..149: the one chunk the range covers, entirely
			want = classAll
		}
		if got := b.classifyChunk(r.Meta(i)); got != want {
			t.Errorf("chunk %d classified %d, want %d", i, got, want)
		}
	}
	got, ex, err := ExecFileExplain(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 50 {
		t.Fatalf("rows = %d, want 50", got.NumRows())
	}
	if ex.ChunksSkipped != 9 || ex.ChunksScanned != 1 || r.DecodeCount() != 1 {
		t.Fatalf("explain = %+v after %d decodes, want 9 skipped, 1 scanned", ex, r.DecodeCount())
	}
	steps := got.Ints("step")
	if steps[0] != 100 || steps[49] != 149 {
		t.Fatalf("range = %d..%d", steps[0], steps[49])
	}
	// A range that cuts through chunks decodes only the ones it touches.
	q, err = Parse("SELECT v FROM t WHERE step >= 120 AND step <= 210")
	if err != nil {
		t.Fatal(err)
	}
	got, ex, err = ExecFileExplain(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 91 || ex.ChunksSkipped != 7 || ex.ChunksScanned != 3 {
		t.Fatalf("rows = %d, explain = %+v", got.NumRows(), ex)
	}
}

// TestPlannerRangeBindErrors: a numeric range over a string column or a
// missing column is rejected at bind, before the file is touched.
func TestPlannerRangeBindErrors(t *testing.T) {
	r := fileFor(t, testTable(), 2)
	for query, want := range map[string]string{
		"SELECT * FROM t WHERE policy >= 0 AND policy <= 1":   "tql: comparing string with number",
		"SELECT * FROM t WHERE missing >= 0 AND missing <= 1": `tql: unknown column "missing"`,
	} {
		if _, err := RunOn(query, r); err == nil || err.Error() != want {
			t.Errorf("%q: err = %v, want %s", query, err, want)
		}
	}
	if r.DecodeCount() != 0 {
		t.Fatalf("bind errors decoded %d chunks", r.DecodeCount())
	}
}
