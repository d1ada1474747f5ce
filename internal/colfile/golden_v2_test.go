package colfile

import (
	"bytes"
	"flag"
	"math"
	"os"
	"testing"

	"amrtools/internal/telemetry"
)

// updateGolden regenerates testdata/v2_golden.col from goldenV2Table:
//
//	go test ./internal/colfile -run TestV2Golden -update
//
// The committed file was written this way at the commit before the writer
// moved onto column views, so it pins that move (and every later one) to
// the bytes the row-copying writer produced. This file uses only API both
// writers share, so it can be dropped into an older checkout to regenerate.
var updateGolden = flag.Bool("update", false, "rewrite testdata/v2_golden.col")

const (
	goldenV2Path  = "testdata/v2_golden.col"
	goldenV2Chunk = 16
)

// goldenV2Table is the generator's table: 100 rows in seven chunks of 16.
// Do not change it without regenerating the file.
//
//   - policy: "baseline" and "lpt" stop after the first two chunks and
//     "cpl50" first appears in the fourth, so later chunks' dictionaries
//     lack the table's early entries and must be renumbered;
//   - note: an empty string beside non-empty ones;
//   - wait: chunk 2 (rows 32..47) holds a NaN and drops its zone map;
//   - rank: negative and extreme ints under the delta codec.
func goldenV2Table() *telemetry.Table {
	t := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.IntCol("rank"),
		telemetry.FloatCol("wait"), telemetry.StrCol("policy"), telemetry.StrCol("note"))
	for i := 0; i < 100; i++ {
		rank := int64(i%7) - 3
		switch i {
		case 5:
			rank = math.MinInt64 + 1
		case 70:
			rank = math.MaxInt64
		}
		wait := float64(i)*0.25 - 3.0
		switch i {
		case 40:
			wait = math.NaN()
		case 41:
			wait = math.Copysign(0, -1)
		}
		var policy string
		switch {
		case i < 32:
			policy = []string{"baseline", "lpt", "cdp"}[i%3]
		case i < 48:
			policy = "cdp"
		default:
			policy = []string{"cpl50", "cdp"}[i%2]
		}
		note := ""
		if i%5 == 0 {
			note = "lb"
		}
		t.Append(i/10, rank, wait, policy, note)
	}
	return t
}

// sameBits is telemetry.Equal with floats compared by bit pattern, so the
// golden table's NaN and -0 cells count.
func sameBits(a, b *telemetry.Table) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	for i, s := range a.Schema() {
		if s != b.Schema()[i] {
			return false
		}
		for r := 0; r < a.NumRows(); r++ {
			va, vb := a.ValueAt(s.Name, r), b.ValueAt(s.Name, r)
			if fa, ok := va.(float64); ok {
				va, vb = math.Float64bits(fa), math.Float64bits(vb.(float64))
			}
			if va != vb {
				return false
			}
		}
	}
	return true
}

// TestV2Golden: the writer must reproduce the committed file byte for byte,
// and the reader must give back the generator's table.
func TestV2Golden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable(&buf, goldenV2Table(), goldenV2Chunk); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenV2Path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteTable wrote %d bytes that differ from the %d-byte golden file", buf.Len(), len(want))
	}
	r, err := OpenBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 2 || r.NumChunks() != 7 {
		t.Fatalf("version %d, %d chunks; want 2 and 7", r.Version(), r.NumChunks())
	}
	if z := r.Meta(2).Zones[2]; z.HasRange || z.HasSum {
		t.Fatalf("NaN chunk kept its zone map: %+v", z)
	}
	got, err := r.Table()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(goldenV2Table(), got) {
		t.Fatal("Reader.Table() differs from the generator's table")
	}
}
