package colfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"amrtools/internal/telemetry"
)

// Reader is a random-access colfile reader over an io.ReaderAt. It parses
// the footer block index — chunk offsets, row counts, checksums, and zone
// maps — so queries seek straight to matching chunks (or skip payloads
// entirely for metadata-only aggregates).
//
// A Reader from OpenBytes reads chunk bodies in place, as slices of its
// bytes; one from Open or OpenFile reads each into the scan's Scratch.
// Either way every body is checked against the index and its checksum on
// every read.
//
// A Reader is safe for concurrent use: the index is immutable after Open,
// chunk reads go through io.ReaderAt or the immutable bytes, every scan
// decodes into its own Scratch, and the decode counter is atomic.
type Reader struct {
	ra      io.ReaderAt
	data    []byte // the whole file, when OpenBytes had it in memory; else nil
	size    int64
	version byte
	schema  []telemetry.ColSpec
	chunks  []ChunkMeta
	rows    int64
	decodes atomic.Int64
}

// Open parses the header and block index of the file behind ra.
func Open(ra io.ReaderAt, size int64) (*Reader, error) {
	hr := io.NewSectionReader(ra, 0, size)
	ver, schema, hlen, err := parseHeader(hr)
	if err != nil {
		return nil, err
	}
	r := &Reader{ra: ra, size: size, version: ver, schema: schema}
	if err := r.loadFooter(hlen); err != nil {
		return nil, err
	}
	for _, m := range r.chunks {
		r.rows += int64(m.Rows)
	}
	return r, nil
}

// OpenFile opens a Reader over an *os.File, taking the size from Stat.
func OpenFile(f *os.File) (*Reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return Open(f, st.Size())
}

// OpenBytes opens a Reader over an in-memory encoded file. The Reader
// reads chunk bodies in place, so data must not change while it is in use;
// nothing it returns aliases data.
func OpenBytes(data []byte) (*Reader, error) {
	r, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	r.data = data
	return r, nil
}

// loadFooter parses the footer block index and validates it
// against the file geometry and its own checksum.
func (r *Reader) loadFooter(hlen int64) error {
	if r.size < hlen+4+trailerLen {
		return fmt.Errorf("colfile: file too short for a version-2 footer (%d bytes)", r.size)
	}
	var trailer [trailerLen]byte
	if _, err := r.ra.ReadAt(trailer[:], r.size-trailerLen); err != nil {
		return fmt.Errorf("colfile: reading footer trailer: %w", err)
	}
	if !bytes.Equal(trailer[8:12], footerMagic[:]) {
		return fmt.Errorf("colfile: bad footer magic %q", trailer[8:12])
	}
	footLen := int64(binary.LittleEndian.Uint32(trailer[0:4]))
	wantCRC := binary.LittleEndian.Uint32(trailer[4:8])
	footStart := r.size - trailerLen - footLen
	if footStart < hlen+4 {
		return fmt.Errorf("colfile: footer length %d exceeds file", footLen)
	}
	foot := make([]byte, footLen)
	if _, err := r.ra.ReadAt(foot, footStart); err != nil {
		return fmt.Errorf("colfile: reading footer: %w", err)
	}
	if got := crc32.ChecksumIEEE(foot); got != wantCRC {
		return fmt.Errorf("colfile: footer checksum mismatch: %08x != %08x", got, wantCRC)
	}
	// The sentinel sits where a chunk length prefix would, immediately
	// before the footer body.
	var sent [4]byte
	if _, err := r.ra.ReadAt(sent[:], footStart-4); err != nil {
		return fmt.Errorf("colfile: reading footer sentinel: %w", err)
	}
	if binary.LittleEndian.Uint32(sent[:]) != footerSentinel {
		return fmt.Errorf("colfile: missing footer sentinel")
	}
	chunkRegionEnd := footStart - 4

	buf := bytes.NewReader(foot)
	var nchunks uint32
	if err := binary.Read(buf, binary.LittleEndian, &nchunks); err != nil {
		return fmt.Errorf("colfile: footer: %w", err)
	}
	// Each index entry costs at least 20 bytes + 1 flag byte per column.
	minEntry := uint64(20 + len(r.schema))
	if uint64(nchunks)*minEntry > uint64(buf.Len()) {
		return fmt.Errorf("colfile: footer chunk count %d exceeds footer size", nchunks)
	}
	chunks := make([]ChunkMeta, 0, nchunks)
	for i := uint32(0); i < nchunks; i++ {
		var m ChunkMeta
		var off uint64
		var rows uint32
		if err := binary.Read(buf, binary.LittleEndian, &off); err != nil {
			return fmt.Errorf("colfile: footer entry %d: %w", i, err)
		}
		if err := binary.Read(buf, binary.LittleEndian, &m.Length); err != nil {
			return fmt.Errorf("colfile: footer entry %d: %w", i, err)
		}
		if err := binary.Read(buf, binary.LittleEndian, &rows); err != nil {
			return fmt.Errorf("colfile: footer entry %d: %w", i, err)
		}
		if err := binary.Read(buf, binary.LittleEndian, &m.CRC); err != nil {
			return fmt.Errorf("colfile: footer entry %d: %w", i, err)
		}
		m.Offset = int64(off)
		m.Rows = int(rows)
		if m.Offset < 0 || m.Offset+4+int64(m.Length) > chunkRegionEnd {
			return fmt.Errorf("colfile: footer entry %d: chunk [%d,+%d] outside chunk region [0,%d)",
				i, m.Offset, m.Length, chunkRegionEnd)
		}
		m.Zones = make([]ZoneMap, len(r.schema))
		for ci := range r.schema {
			flag, err := buf.ReadByte()
			if err != nil {
				return fmt.Errorf("colfile: footer entry %d: %w", i, err)
			}
			z := &m.Zones[ci]
			if flag&zoneHasRange != 0 {
				if err := binary.Read(buf, binary.LittleEndian, &z.Min); err != nil {
					return fmt.Errorf("colfile: footer entry %d: %w", i, err)
				}
				if err := binary.Read(buf, binary.LittleEndian, &z.Max); err != nil {
					return fmt.Errorf("colfile: footer entry %d: %w", i, err)
				}
				z.HasRange = true
			}
			if flag&zoneHasSum != 0 {
				var cnt uint64
				if err := binary.Read(buf, binary.LittleEndian, &z.Sum); err != nil {
					return fmt.Errorf("colfile: footer entry %d: %w", i, err)
				}
				if err := binary.Read(buf, binary.LittleEndian, &cnt); err != nil {
					return fmt.Errorf("colfile: footer entry %d: %w", i, err)
				}
				z.Count = int64(cnt)
				z.HasSum = true
			}
		}
		chunks = append(chunks, m)
	}
	if buf.Len() != 0 {
		return fmt.Errorf("colfile: %d trailing bytes after footer index", buf.Len())
	}
	r.chunks = chunks
	return nil
}

// Schema returns the file's column specs (read-only).
func (r *Reader) Schema() []telemetry.ColSpec { return r.schema }

// Version returns the file format version (always 2: Open rejects others).
func (r *Reader) Version() int { return int(r.version) }

// NumChunks returns the number of chunks in the block index.
func (r *Reader) NumChunks() int { return len(r.chunks) }

// NumRows returns the total row count across all chunks, from metadata
// alone (no payload is read).
func (r *Reader) NumRows() int64 { return r.rows }

// Meta returns the block-index entry for chunk i (read-only).
func (r *Reader) Meta(i int) ChunkMeta { return r.chunks[i] }

// ColIndex returns the schema index of the named column, or -1.
func (r *Reader) ColIndex(name string) int {
	for i, s := range r.schema {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// DecodeCount returns the number of chunk-payload decode operations
// performed so far — the observable that proves a query was answered from
// metadata alone (zero) or how many chunks pushdown actually touched.
func (r *Reader) DecodeCount() int64 { return r.decodes.Load() }

// chunkBody returns the raw body of chunk i, verified against the index:
// the chunk's own length prefix must agree with it, and so must the
// checksum. The body is a slice of the Reader's bytes when it has them, and
// is read into *buf otherwise.
func (r *Reader) chunkBody(i int, buf *[]byte) ([]byte, error) {
	m := r.chunks[i]
	var raw []byte
	if r.data != nil {
		raw = r.data[m.Offset : m.Offset+4+int64(m.Length)] // in range: loadFooter checked
	} else {
		raw = resize(*buf, 4+int(m.Length))
		*buf = raw
		if _, err := r.ra.ReadAt(raw, m.Offset); err != nil {
			return nil, fmt.Errorf("colfile: chunk %d: %w", i, err)
		}
	}
	if got := binary.LittleEndian.Uint32(raw); got != m.Length {
		return nil, fmt.Errorf("colfile: chunk %d length prefix %d does not match the index (%d)", i, got, m.Length)
	}
	body := raw[4:]
	if got := crc32.ChecksumIEEE(body); got != m.CRC {
		return nil, fmt.Errorf("colfile: chunk %d checksum mismatch: %08x != %08x", i, got, m.CRC)
	}
	return body, nil
}

// DecodeChunk materializes chunk i as a table (all columns). The table
// adopts the decoded columns, chunk dictionaries included.
func (r *Reader) DecodeChunk(i int) (*telemetry.Table, error) {
	cols, _, err := r.DecodeColumns(i, nil)
	if err != nil {
		return nil, err
	}
	t, err := telemetry.FromColumns(r.schema, cols)
	if err != nil {
		return nil, fmt.Errorf("colfile: %w", err)
	}
	return t, nil
}

// DecodeColumns decodes only the selected schema column indices of chunk i
// (projection pushdown): unselected payloads are skipped, not parsed; a nil
// want selects every column. The returned slice is indexed by schema column
// index; unselected entries are zero. The second result is the chunk's row
// count. The columns are the caller's: DecodeColumnsInto over a Scratch of
// their own.
func (r *Reader) DecodeColumns(i int, want []bool) ([]telemetry.Column, int, error) {
	return r.DecodeColumnsInto(new(Scratch), i, want)
}

// DecodeColumnsInto is DecodeColumns into s's storage: the columns are
// valid until the next call with s, which reuses their buffers. A scan
// holds one Scratch for all its chunks.
func (r *Reader) DecodeColumnsInto(s *Scratch, i int, want []bool) ([]telemetry.Column, int, error) {
	body, err := r.chunkBody(i, &s.body)
	if err != nil {
		return nil, 0, err
	}
	r.decodes.Add(1)
	n, cols, err := s.decode(r.schema, body, want)
	if err != nil {
		return nil, 0, err
	}
	return cols, n, nil
}

// Table materializes the whole file as one table.
func (r *Reader) Table() (*telemetry.Table, error) {
	out := telemetry.NewTable(r.schema...)
	var s Scratch // AppendColumns copies what it takes
	for i := range r.chunks {
		cols, _, err := r.DecodeColumnsInto(&s, i, nil)
		if err != nil {
			return nil, err
		}
		out.AppendColumns(cols, nil)
	}
	return out, nil
}
