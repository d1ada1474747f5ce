package colfile

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"strings"
	"testing"

	"amrtools/internal/telemetry"
)

func encodeV2(t *testing.T, src *telemetry.Table, chunkRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTable(&buf, src, chunkRows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOpenV2Index(t *testing.T) {
	src := buildTable(503, 11)
	data := encodeV2(t, src, 64)
	r, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 2 {
		t.Fatalf("version = %d, want 2", r.Version())
	}
	if r.NumChunks() != 8 { // ceil(503/64)
		t.Fatalf("chunks = %d, want 8", r.NumChunks())
	}
	if r.NumRows() != 503 {
		t.Fatalf("rows = %d, want 503", r.NumRows())
	}
	if r.DecodeCount() != 0 {
		t.Fatalf("index build decoded %d chunks", r.DecodeCount())
	}
	got, err := r.Table()
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(src, got) {
		t.Fatal("seekable round trip mismatch")
	}
	if r.DecodeCount() != 8 {
		t.Fatalf("decode count = %d, want 8", r.DecodeCount())
	}
}

func TestOpenZoneMaps(t *testing.T) {
	src := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.FloatCol("v"), telemetry.StrCol("s"))
	for i := 0; i < 100; i++ {
		src.Append(i, float64(i)*0.5, "x")
	}
	r, err := OpenBytes(encodeV2(t, src, 50))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Meta(1)
	z := m.Zones[0] // step: rows 50..99
	if !z.HasRange || z.Min != 50 || z.Max != 99 {
		t.Fatalf("step zone = %+v", z)
	}
	if !z.HasSum || z.Count != 50 || z.Sum != 3725 { // sum 50..99 = (50+99)*50/2
		t.Fatalf("step sum zone = %+v, want sum 3725 over 50 rows", z)
	}
	zv := m.Zones[1] // v: 25.0..49.5
	if !zv.HasRange || zv.Min != 25 || zv.Max != 49.5 {
		t.Fatalf("v zone = %+v", zv)
	}
	zs := m.Zones[2] // string column: no range, but count present
	if zs.HasRange || zs.HasSum {
		t.Fatalf("string zone = %+v", zs)
	}
}

func TestNaNChunkDropsZones(t *testing.T) {
	src := telemetry.NewTable(telemetry.FloatCol("v"))
	src.Append(1.0)
	src.Append(math.NaN())
	r, err := OpenBytes(encodeV2(t, src, 0))
	if err != nil {
		t.Fatal(err)
	}
	z := r.Meta(0).Zones[0]
	if z.HasRange || z.HasSum {
		t.Fatalf("NaN-bearing chunk kept zones: %+v", z)
	}
}

func TestProjectionDecode(t *testing.T) {
	src := buildTable(100, 13)
	r, err := OpenBytes(encodeV2(t, src, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true, false} // only "wait"
	cols, n, err := r.DecodeColumns(0, want)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("rows = %d", n)
	}
	if len(cols[2].Floats) != 100 {
		t.Fatalf("wait not decoded: %d", len(cols[2].Floats))
	}
	if cols[0].Ints != nil || cols[3].IDs != nil {
		t.Fatal("unselected columns were decoded")
	}
	if cols[2].Floats[0] != src.Floats("wait")[0] {
		t.Fatal("projected values wrong")
	}
}

// TestOpenV1Rejected: version 2 is the only format. A version-1 file — this
// one was written by the footer-less writer the package once had — is refused
// at Open with a clean error naming the version, before any chunk is read.
func TestOpenV1Rejected(t *testing.T) {
	data, err := os.ReadFile("testdata/v1_golden.col")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenBytes(data)
	if err == nil || err.Error() != "colfile: unsupported version 1" {
		t.Fatalf("Open of a version-1 file: reader %v, err %v; want unsupported version 1", r, err)
	}
}

func TestChunkChecksumMismatch(t *testing.T) {
	src := buildTable(100, 17)
	data := encodeV2(t, src, 0)
	r, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the chunk body (after the 4-byte length prefix at
	// the chunk offset).
	bad := append([]byte(nil), data...)
	bad[r.Meta(0).Offset+4+10] ^= 0x40
	r2, err := OpenBytes(bad)
	if err != nil {
		t.Fatal(err) // footer itself is intact
	}
	if _, err := r2.DecodeChunk(0); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt chunk body: err = %v, want checksum mismatch", err)
	}
}

func TestFooterChecksumMismatch(t *testing.T) {
	data := encodeV2(t, buildTable(50, 19), 0)
	// Footer body sits between sentinel and trailer; flip its first byte
	// (the chunk count) without touching the trailer CRC.
	footLen := binary.LittleEndian.Uint32(data[len(data)-trailerLen:])
	bad := append([]byte(nil), data...)
	bad[len(bad)-trailerLen-int(footLen)] ^= 0x01
	if _, err := OpenBytes(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt footer: err = %v, want checksum mismatch", err)
	}
}

func TestTruncatedFooterRejected(t *testing.T) {
	data := encodeV2(t, buildTable(50, 23), 0)
	for _, cut := range []int{1, trailerLen - 1, trailerLen, trailerLen + 3} {
		short := data[:len(data)-cut]
		if _, err := OpenBytes(short); err == nil {
			t.Fatalf("Open accepted file truncated by %d bytes", cut)
		}
	}
}

func TestFooterBadMagicRejected(t *testing.T) {
	data := encodeV2(t, buildTable(10, 29), 0)
	bad := append([]byte(nil), data...)
	copy(bad[len(bad)-4:], "XXXX")
	if _, err := OpenBytes(bad); err == nil {
		t.Fatal("bad footer magic accepted by Open")
	}
}

func TestFooterOutOfRangeOffsetRejected(t *testing.T) {
	// Hand-corrupt a footer entry's offset to point past the chunk region;
	// the CRC must be recomputed so the geometry check is what fires.
	data := encodeV2(t, buildTable(10, 31), 0)
	footLen := int(binary.LittleEndian.Uint32(data[len(data)-trailerLen:]))
	footStart := len(data) - trailerLen - footLen
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[footStart+4:], uint64(len(data))) // entry 0 offset
	crc := crc32.ChecksumIEEE(bad[footStart : footStart+footLen])
	binary.LittleEndian.PutUint32(bad[len(bad)-trailerLen+4:], crc)
	if _, err := OpenBytes(bad); err == nil || !strings.Contains(err.Error(), "outside chunk region") {
		t.Fatalf("out-of-range chunk offset: err = %v", err)
	}
}

func TestOpenEmptyTable(t *testing.T) {
	src := telemetry.NewTable(telemetry.IntCol("a"), telemetry.StrCol("b"))
	r, err := OpenBytes(encodeV2(t, src, 0))
	if err != nil {
		t.Fatal(err)
	}
	// WriteTable emits one zero-row chunk for an empty table (v1 did the
	// same); what matters is the row count and a clean materialization.
	if r.NumRows() != 0 {
		t.Fatalf("empty file: %d rows", r.NumRows())
	}
	got, err := r.Table()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.NumCols() != 2 {
		t.Fatalf("empty table: %dx%d", got.NumRows(), got.NumCols())
	}
}

func TestOpenFileFromDisk(t *testing.T) {
	path := t.TempDir() + "/t.col"
	src := buildTable(200, 37)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTable(f, src, 64); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	r, err := OpenFile(rf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Table()
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(src, got) {
		t.Fatal("OpenFile round trip mismatch")
	}
}
