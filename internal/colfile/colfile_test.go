package colfile

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"amrtools/internal/telemetry"
	"amrtools/internal/xrand"
)

func buildTable(rows int, seed uint64) *telemetry.Table {
	rng := xrand.New(seed)
	t := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.IntCol("rank"),
		telemetry.FloatCol("wait"), telemetry.StrCol("policy"))
	policies := []string{"baseline", "lpt", "cdp", "cpl50"}
	for i := 0; i < rows; i++ {
		t.Append(i/8, rng.Intn(64), rng.Float64()*10, policies[rng.Intn(4)])
	}
	return t
}

func tablesEqual(a, b *telemetry.Table) bool {
	if a.NumRows() != b.NumRows() || !reflect.DeepEqual(a.Schema(), b.Schema()) {
		return false
	}
	for _, s := range a.Schema() {
		for r := 0; r < a.NumRows(); r++ {
			if a.ValueAt(s.Name, r) != b.ValueAt(s.Name, r) {
				return false
			}
		}
	}
	return true
}

// readBack opens an encoded file and materializes it.
func readBack(data []byte) (*telemetry.Table, error) {
	r, err := OpenBytes(data)
	if err != nil {
		return nil, err
	}
	return r.Table()
}

func TestRoundTripSingleChunk(t *testing.T) {
	src := buildTable(200, 1)
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, 0); err != nil {
		t.Fatal(err)
	}
	got, err := readBack(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(src, got) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripMultiChunk(t *testing.T) {
	src := buildTable(503, 2) // odd size to exercise ragged last chunk
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, 64); err != nil {
		t.Fatal(err)
	}
	got, err := readBack(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(src, got) {
		t.Fatal("multi-chunk round trip mismatch")
	}
}

func TestRoundTripEmpty(t *testing.T) {
	src := telemetry.NewTable(telemetry.IntCol("a"), telemetry.StrCol("b"))
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, 0); err != nil {
		t.Fatal(err)
	}
	got, err := readBack(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.NumCols() != 2 {
		t.Fatalf("empty round trip: %dx%d", got.NumRows(), got.NumCols())
	}
}

func TestSpecialFloats(t *testing.T) {
	src := telemetry.NewTable(telemetry.FloatCol("v"))
	for _, v := range []float64{0, -0, math.Inf(1), math.Inf(-1), 1e-300, -1e300} {
		src.Append(v)
	}
	src.Append(math.NaN())
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, 0); err != nil {
		t.Fatal(err)
	}
	got, err := readBack(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vs := got.Floats("v")
	if vs[2] != math.Inf(1) || vs[3] != math.Inf(-1) {
		t.Fatal("infinities mangled")
	}
	if !math.IsNaN(vs[6]) {
		t.Fatal("NaN mangled")
	}
}

func TestNegativeAndLargeInts(t *testing.T) {
	src := telemetry.NewTable(telemetry.IntCol("v"))
	vals := []int64{0, -1, 1, math.MaxInt64, math.MinInt64 + 1, -99999, 42}
	for _, v := range vals {
		src.Append(v)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, 0); err != nil {
		t.Fatal(err)
	}
	got, err := readBack(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ints("v"), vals) {
		t.Fatalf("ints mangled: %v", got.Ints("v"))
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := OpenBytes([]byte("NOPE-nothing")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedChunkRejected(t *testing.T) {
	src := buildTable(100, 3)
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := readBack(buf.Bytes()[:buf.Len()-10]); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestSchemaMismatchOnWrite(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, buildTable(1, 1).Schema())
	if err != nil {
		t.Fatal(err)
	}
	other := telemetry.NewTable(telemetry.IntCol("x"))
	if err := w.WriteChunk(other); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestChunkStats pins the per-chunk statistics: the footer's zone maps, and
// the inline min/max every numeric column of a chunk body carries on disk
// (the footer index is what readers use; the inline bytes are format).
func TestChunkStats(t *testing.T) {
	src := telemetry.NewTable(telemetry.IntCol("step"), telemetry.FloatCol("v"), telemetry.StrCol("s"))
	for i := 0; i < 10; i++ {
		src.Append(i, float64(100-i), "x")
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, 0); err != nil {
		t.Fatal(err)
	}
	r, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 2 || r.NumChunks() != 1 || r.DecodeCount() != 0 {
		t.Fatalf("version %d, %d chunks, %d decodes", r.Version(), r.NumChunks(), r.DecodeCount())
	}
	// Body: rows u32, then step's flag u8 and inline [min, max] f64.
	body, err := r.chunkBody(0, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if le.Uint32(body) != 10 || body[4] != 1 ||
		math.Float64frombits(le.Uint64(body[5:])) != 0 || math.Float64frombits(le.Uint64(body[13:])) != 9 {
		t.Fatalf("inline step stats = % x", body[:21])
	}
	zones := r.Meta(0).Zones
	if z := zones[0]; !z.HasRange || z.Min != 0 || z.Max != 9 || z.Count != 10 {
		t.Fatalf("step stats = %+v", z)
	}
	if z := zones[1]; !z.HasRange || z.Min != 91 || z.Max != 100 {
		t.Fatalf("v stats = %+v", z)
	}
	if z := zones[2]; z.HasRange || z.HasSum {
		t.Fatalf("string column stats = %+v", z)
	}
}

func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, chunkRaw uint8) bool {
		rng := xrand.New(seed)
		rows := rng.Intn(300)
		chunk := int(chunkRaw%50) + 1
		src := buildTable(rows, seed)
		var buf bytes.Buffer
		if err := WriteTable(&buf, src, chunk); err != nil {
			return false
		}
		got, err := readBack(buf.Bytes())
		if err != nil {
			return false
		}
		return tablesEqual(src, got)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionBeatsNaive(t *testing.T) {
	// Sorted ints should delta-encode far below 8 bytes/value.
	src := telemetry.NewTable(telemetry.IntCol("seq"))
	const n = 10000
	for i := 0; i < n; i++ {
		src.Append(i)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, 0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > n*2 {
		t.Fatalf("encoded size %d too large for %d sequential ints", buf.Len(), n)
	}
}

func BenchmarkWriteRead(b *testing.B) {
	src := buildTable(10000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteTable(&buf, src, 1024); err != nil {
			b.Fatal(err)
		}
		if _, err := readBack(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHeaderCorruptionRejected(t *testing.T) {
	src := buildTable(5, 9)
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Corrupt the version byte.
	bad := append([]byte(nil), full...)
	bad[4] = 99
	if _, err := OpenBytes(bad); err == nil {
		t.Error("bad version accepted")
	}
	// Corrupt a column type byte (last byte of header region).
	bad2 := append([]byte(nil), full...)
	// Header: magic(4)+ver(1)+ncols(2)+cols... find first col type byte:
	// namelen(2)+name("step"=4)+type(1) → offset 4+1+2+2+4 = 13.
	bad2[13] = 77
	if _, err := OpenBytes(bad2); err == nil {
		t.Error("bad column type accepted")
	}
	// Truncated header.
	if _, err := OpenBytes(full[:6]); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestDuplicateColumnHeaderRejected(t *testing.T) {
	// Hand-built header declaring the same column name twice (a corruption
	// pattern found by fuzzing): must error, not panic inside NewTable.
	var buf bytes.Buffer
	buf.WriteString("AMRC")
	buf.WriteByte(1)        // version
	buf.Write([]byte{2, 0}) // ncols = 2
	for i := 0; i < 2; i++ {
		buf.Write([]byte{1, 0}) // name length 1
		buf.WriteString("x")    // same name
		buf.WriteByte(0)        // int64
	}
	if _, err := OpenBytes(buf.Bytes()); err == nil {
		t.Fatal("duplicate header columns accepted")
	}
}

func TestOversizedLengthFieldsRejected(t *testing.T) {
	// Corrupt chunk/row/dict lengths must fail cleanly without huge
	// allocations (fuzz-derived regression).
	src := telemetry.NewTable(telemetry.IntCol("a"))
	src.Append(1)
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Header ends after magic(4)+ver(1)+ncols(2)+namelen(2)+"a"(1)+type(1) = 11.
	// Chunk length field is the next 4 bytes: blow it up to 4 GB.
	// The footer index locates the chunk regardless, but the prefix must
	// still agree with it.
	corrupt := append([]byte(nil), data...)
	corrupt[11], corrupt[12], corrupt[13], corrupt[14] = 0xff, 0xff, 0xff, 0xff
	if _, err := readBack(corrupt); err == nil {
		t.Fatal("4GB chunk length accepted")
	}
}
