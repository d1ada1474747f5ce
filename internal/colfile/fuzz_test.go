package colfile

import (
	"bytes"
	"hash/crc32"
	"testing"

	"amrtools/internal/telemetry"
)

// fuzzSeeds returns encoded files: a valid file (with footer index), a
// multi-chunk file, and corruption-shaped fragments (a version-1 header
// among them). Mutations of real structure explore the
// footer parser, sentinel handling, and chunk codec together.
func fuzzSeeds(f *testing.F) [][]byte {
	valid := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.FloatCol("v"), telemetry.StrCol("s"))
	valid.Append(1, 2.5, "a")
	valid.Append(2, -1.0, "bb")
	var buf bytes.Buffer
	if err := WriteTable(&buf, valid, 1); err != nil {
		f.Fatal(err)
	}
	multi := telemetry.NewTable(telemetry.IntCol("step"), telemetry.FloatCol("v"))
	for i := 0; i < 40; i++ {
		multi.Append(i, float64(i)*0.25)
	}
	var mbuf bytes.Buffer
	if err := WriteTable(&mbuf, multi, 8); err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		buf.Bytes(),
		mbuf.Bytes(),
		{},
		[]byte("AMRC"),
		[]byte("AMRC\x01\x00\x00"),
		[]byte("AMRC\x02\x00\x00"),
		bytes.Repeat([]byte{0xff}, 64),
	}
	// A version-2 file with its footer truncated mid-index.
	if n := mbuf.Len(); n > 20 {
		seeds = append(seeds, mbuf.Bytes()[:n-7])
	}
	return append(seeds, hostileDictFile())
}

// hostileDictFile is a file no writer of ours produces: one chunk whose
// string column s carries the dictionary ["a", "a", "c"] — a repeated entry
// and an unused one — under the ids [0, 1, 0], beside the int column v =
// [1, 2, 3]. A reader must treat a dictionary as the outside input it is.
// The chunk is patched in place and its checksums recomputed, so only the
// dictionary is hostile.
func hostileDictFile() []byte {
	t := telemetry.NewTable(telemetry.StrCol("s"), telemetry.IntCol("v"))
	t.Append("a", 1)
	t.Append("b", 2)
	t.Append("c", 3)
	var buf bytes.Buffer
	if err := WriteTable(&buf, t, 0); err != nil {
		panic(err)
	}
	file := buf.Bytes()
	clean := []byte("\x03\x01a\x01b\x01c\x00\x01\x02") // dictionary of 3, then the ids
	at := bytes.Index(file, clean)
	if at < 0 {
		panic("colfile: string payload not where the format says")
	}
	copy(file[at:], "\x03\x01a\x01a\x01c\x00\x01\x00")
	// Re-sum chunk 0 into its footer entry (after the chunk count: offset
	// u64, length u32, rows u32, crc u32), then the footer body itself.
	n := len(file)
	footStart := n - trailerLen - int(le.Uint32(file[n-trailerLen:]))
	entry := file[footStart+4:]
	off, length := le.Uint64(entry), uint64(le.Uint32(entry[8:]))
	le.PutUint32(entry[16:], crc32.ChecksumIEEE(file[off+4:off+4+length]))
	le.PutUint32(file[n-trailerLen+4:], crc32.ChecksumIEEE(file[footStart:n-trailerLen]))
	return file
}

// FuzzReadAll asserts that reading a whole file back is all or nothing:
// arbitrary bytes either fail to open or decode, or yield a table with
// exactly the rows the index promised — one that survives being written
// and read again unchanged. Corrupt or truncated files must surface as
// errors, never as a short or different table.
func FuzzReadAll(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenBytes(data)
		if err != nil {
			return
		}
		got, err := r.Table()
		if err != nil {
			return
		}
		if int64(got.NumRows()) != r.NumRows() {
			t.Fatalf("Table() has %d rows, index promised %d", got.NumRows(), r.NumRows())
		}
		// Compare encodings, not cells: a fuzzed float may be NaN.
		var buf, buf2 bytes.Buffer
		if err := WriteTable(&buf, got, 3); err != nil {
			t.Fatal(err)
		}
		again, err := readBack(buf.Bytes())
		if err != nil {
			t.Fatalf("rewritten file does not read back: %v", err)
		}
		if err := WriteTable(&buf2, again, 3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("table changed across a write/read cycle")
		}
	})
}
