// Package colfile implements a compact binary columnar file format for
// telemetry tables, with embedded statistics for predicate pushdown.
//
// The paper's Lesson 4 argues that binary columnar formats with embedded
// statistics (Parquet/Arrow-style), paired with in-situ collection, are the
// right substrate for low-latency BSP telemetry — their ad hoc pipeline
// moved from CSV to custom binary formats precisely because parsing became
// the bottleneck. This package is that format: int columns are
// delta+zigzag+varint encoded, floats are raw little-endian, strings are
// chunk-local dictionaries.
//
// There is one on-disk format, version 2: a multi-block layout of chunks
// followed by a footer block index holding every chunk's byte offset, row
// count, CRC32 checksum, and extended per-column zone maps
// (min/max/sum/count). Readers with random access (Open) seek straight to
// the chunks a query needs — or answer min/max/sum/count/avg aggregates
// from the footer without touching any payload. Any other version byte —
// the footer-less version 1 included — is rejected at Open.
//
// Layout (version 2):
//
//	header:  magic "AMRC", version u8 = 2, ncols u16,
//	         per column: name (u16 len + bytes), type u8
//	chunk*:  total byte length u32, then the body:
//	           row count u32,
//	           per column: stats flag u8 [min f64, max f64],
//	           payload length u32, payload bytes
//	footer:  sentinel u32 0xFFFFFFFF (in place of a chunk length),
//	         footer body:
//	           chunk count u32,
//	           per chunk: offset u64 (of the chunk's length prefix),
//	             body length u32, row count u32, crc32(body) u32,
//	             per column: zone flag u8 (bit0 = min/max, bit1 = sum/count)
//	               [min f64, max f64] [sum f64, count u64]
//	         footer body length u32, crc32(footer body) u32, magic "AMRF"
package colfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"amrtools/internal/telemetry"
)

var (
	magic       = [4]byte{'A', 'M', 'R', 'C'}
	footerMagic = [4]byte{'A', 'M', 'R', 'F'}
)

const (
	version2 = 2

	// footerSentinel marks the end of the chunk sequence in version-2
	// files: it occupies the position of a chunk length prefix and can
	// never be a real one (the writer refuses a chunk body that long, see
	// checkBodyLen).
	footerSentinel = 0xFFFFFFFF

	// trailerLen is the fixed-size tail of a version-2 file: footer body
	// length u32 + footer crc32 u32 + footer magic.
	trailerLen = 12

	zoneHasRange = 1 << 0
	zoneHasSum   = 1 << 1
)

// ZoneMap is the footer's extended per-chunk, per-column statistics. For a
// numeric column of a NaN-free chunk, HasRange and HasSum are both true:
// Min/Max bound every value, Sum is the left-to-right total (ints summed as
// float64, matching the query layer's numeric coercion), and Count is the
// number of values. Chunks containing NaN opt out of their zone map
// entirely (both flags false) so pushdown and metadata-only aggregation
// never reason from statistics a NaN silently escaped. String columns only
// ever have Count.
type ZoneMap struct {
	Min, Max float64
	Sum      float64
	Count    int64
	HasRange bool
	HasSum   bool
}

// ChunkMeta is one footer block-index entry: where a chunk lives, how many
// rows it holds, its checksum, and its per-column zone maps.
type ChunkMeta struct {
	Offset int64  // file offset of the chunk's u32 length prefix
	Length uint32 // chunk body length in bytes
	Rows   int
	CRC    uint32 // crc32 (IEEE) of the chunk body
	Zones  []ZoneMap
}

// Writer streams a table schema and chunks to an io.Writer, producing a
// version-2 file: chunks as written, then the footer block index on
// Finalize.
type Writer struct {
	w      *bufio.Writer
	schema []telemetry.ColSpec
	off    int64 // bytes emitted so far (header + chunks)
	index  []ChunkMeta
	done   bool
	// body is the one buffer every chunk (length prefix included) and the
	// footer are encoded into, reused from chunk to chunk: each value is
	// appended to it once and it goes to the underlying writer from there.
	body []byte
	// remap and dict are the string encoder's scratch: table dictionary id →
	// chunk id + 1, and the table ids in chunk-id order. remap is all zeros
	// between columns: the encoder clears exactly the entries it set, so a
	// chunk costs O(its rows) however large the table's dictionary is.
	remap []uint32
	dict  []uint32
}

var le = binary.LittleEndian

// NewWriter writes the header for schema and returns a chunk writer. Call
// Finalize once after the last chunk to emit the footer.
func NewWriter(w io.Writer, schema []telemetry.ColSpec) (*Writer, error) {
	hdr := append([]byte(nil), magic[:]...)
	hdr = append(hdr, version2)
	hdr = le.AppendUint16(hdr, uint16(len(schema)))
	for _, s := range schema {
		hdr = le.AppendUint16(hdr, uint16(len(s.Name)))
		hdr = append(hdr, s.Name...)
		hdr = append(hdr, byte(s.Type))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: bw, schema: schema, off: int64(len(hdr))}, nil
}

// checkBodyLen rejects a chunk body the format cannot frame: its length is a
// u32, and 0xFFFFFFFF in that position is the footer sentinel.
func checkBodyLen(n int) error {
	if uint64(n) >= footerSentinel {
		return fmt.Errorf("colfile: chunk body of %d bytes exceeds the format's 4 GiB limit (write smaller chunks)", n)
	}
	return nil
}

// WriteChunk appends all rows of t as one chunk. t's schema must match the
// writer's.
func (w *Writer) WriteChunk(t *telemetry.Table) error {
	if w.done {
		return fmt.Errorf("colfile: WriteChunk after Finalize")
	}
	if err := sameSchema(w.schema, t.Schema()); err != nil {
		return err
	}
	b := append(w.body[:0], 0, 0, 0, 0) // the body's length, patched below
	b = le.AppendUint32(b, uint32(t.NumRows()))
	zones := make([]ZoneMap, len(w.schema))
	for ci, c := range t.Columns() {
		var err error
		if b, zones[ci], err = w.appendColumn(b, w.schema[ci], c); err != nil {
			return err
		}
	}
	w.body = b
	body := b[4:]
	if err := checkBodyLen(len(body)); err != nil {
		return err
	}
	le.PutUint32(b, uint32(len(body)))
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.index = append(w.index, ChunkMeta{
		Offset: w.off,
		Length: uint32(len(body)),
		Rows:   t.NumRows(),
		CRC:    crc32.ChecksumIEEE(body),
		Zones:  zones,
	})
	w.off += int64(len(b))
	return nil
}

// Finalize writes the footer block index and flushes buffered output. Call
// once after the last chunk; further WriteChunk calls fail.
func (w *Writer) Finalize() error {
	if w.done {
		return w.w.Flush()
	}
	w.done = true
	b := le.AppendUint32(w.body[:0], footerSentinel)
	b = le.AppendUint32(b, uint32(len(w.index)))
	for _, m := range w.index {
		b = le.AppendUint64(b, uint64(m.Offset))
		b = le.AppendUint32(b, m.Length)
		b = le.AppendUint32(b, uint32(m.Rows))
		b = le.AppendUint32(b, m.CRC)
		for _, z := range m.Zones {
			var flag byte
			if z.HasRange {
				flag |= zoneHasRange
			}
			if z.HasSum {
				flag |= zoneHasSum
			}
			b = append(b, flag)
			if z.HasRange {
				b = appendFloat(appendFloat(b, z.Min), z.Max)
			}
			if z.HasSum {
				b = le.AppendUint64(appendFloat(b, z.Sum), uint64(z.Count))
			}
		}
	}
	foot := b[4:]
	b = le.AppendUint32(b, uint32(len(foot)))
	b = le.AppendUint32(b, crc32.ChecksumIEEE(foot))
	b = append(b, footerMagic[:]...)
	w.body = b
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	return w.w.Flush()
}

func sameSchema(a, b []telemetry.ColSpec) error {
	if len(a) != len(b) {
		return fmt.Errorf("colfile: schema mismatch: %d vs %d columns", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("colfile: schema mismatch at column %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

func appendFloat(b []byte, v float64) []byte {
	return le.AppendUint64(b, math.Float64bits(v))
}

// appendColumn is the encoder: it appends one column of a chunk body to b —
// stats flag [min, max], payload length, payload — in one pass over the
// values, each written once where it stays. What the pass only learns at its
// end (an int column's range, every payload's length) is patched into the
// bytes reserved for it.
func (w *Writer) appendColumn(b []byte, s telemetry.ColSpec, c telemetry.Column) ([]byte, ZoneMap, error) {
	var z ZoneMap
	switch s.Type {
	case telemetry.Int64:
		xs := c.Ints
		z.Count = int64(len(xs))
		z.HasRange = len(xs) > 0
		z.HasSum = len(xs) > 0
		b = appendStatsHeader(b, z)
		start := len(b)
		prev := int64(0)
		for i, v := range xs {
			f := float64(v)
			if i == 0 || f < z.Min {
				z.Min = f
			}
			if i == 0 || f > z.Max {
				z.Max = f
			}
			z.Sum += f
			b = binary.AppendVarint(b, v-prev) // signed varint = zig-zag
			prev = v
		}
		if z.HasRange {
			le.PutUint64(b[start-20:], math.Float64bits(z.Min))
			le.PutUint64(b[start-12:], math.Float64bits(z.Max))
		}
		le.PutUint32(b[start-4:], uint32(len(b)-start))
	case telemetry.Float64:
		// The payload's size is known up front, so the statistics go first
		// and the header is written whole.
		xs := c.Floats
		sawNaN := false
		for i, v := range xs {
			if v != v {
				sawNaN = true
			}
			if i == 0 || v < z.Min {
				z.Min = v
			}
			if i == 0 || v > z.Max {
				z.Max = v
			}
			z.Sum += v
		}
		z.Count = int64(len(xs))
		// A NaN never registers in the < / > min-max updates, so a zone
		// map for a NaN-bearing chunk would silently under-report its
		// range; drop the whole zone so readers never prune or aggregate
		// from it (pushdown soundness, DESIGN.md §12).
		z.HasRange = len(xs) > 0 && !sawNaN
		z.HasSum = z.HasRange
		b = appendStatsHeader(b, z)
		start := len(b)
		b = slices.Grow(b, 8*len(xs))[:start+8*len(xs)]
		for i, v := range xs {
			le.PutUint64(b[start+8*i:], math.Float64bits(v))
		}
		le.PutUint32(b[start-4:], uint32(8*len(xs)))
	case telemetry.String:
		// Chunk-local dictionary: the values this chunk uses, numbered in
		// order of first appearance. The payload is thus a function of the
		// chunk's values alone — whatever else the table's dictionary
		// holds (a view keeps its source's whole) and however it is
		// numbered, the bytes are the same.
		if len(w.remap) < len(c.Dict) {
			w.remap = make([]uint32, len(c.Dict))
		}
		dict := w.dict[:0] // table ids, in chunk-id order
		for _, id := range c.IDs {
			if w.remap[id] == 0 {
				dict = append(dict, id)
				w.remap[id] = uint32(len(dict))
			}
		}
		w.dict = dict
		z.Count = int64(len(c.IDs))
		b = appendStatsHeader(b, z)
		start := len(b)
		b = binary.AppendUvarint(b, uint64(len(dict)))
		for _, id := range dict {
			b = binary.AppendUvarint(b, uint64(len(c.Dict[id])))
			b = append(b, c.Dict[id]...)
		}
		for _, id := range c.IDs {
			b = binary.AppendUvarint(b, uint64(w.remap[id]-1))
		}
		for _, id := range dict {
			w.remap[id] = 0
		}
		le.PutUint32(b[start-4:], uint32(len(b)-start))
	default:
		return b, z, fmt.Errorf("colfile: unknown column type %v", s.Type)
	}
	return b, z, nil
}

// appendStatsHeader appends a column's inline header: the stats flag, room
// for [min, max] when z has a range (filled with z's, which an int column
// patches once it knows them), and room for the payload length.
func appendStatsHeader(b []byte, z ZoneMap) []byte {
	if !z.HasRange {
		return append(b, 0, 0, 0, 0, 0)
	}
	b = appendFloat(appendFloat(append(b, 1), z.Min), z.Max)
	return append(b, 0, 0, 0, 0)
}

// errVarintOverflow is what encoding/binary's readers say of a varint longer
// than 64 bits.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// uvarint decodes the varint at p[at:], returning the index after it. A
// payload that ends first is io.EOF at the varint's first byte and
// io.ErrUnexpectedEOF inside it, as a byte reader would report. The
// per-row loops test for a one-byte varint before they call it: every id of
// a small dictionary, most deltas of a sorted column.
func uvarint(p []byte, at int) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if at+i >= len(p) {
			if i > 0 {
				return x, at + i, io.ErrUnexpectedEOF
			}
			return x, at, io.EOF
		}
		b := p[at+i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return x, at + i + 1, errVarintOverflow
			}
			return x | uint64(b)<<s, at + i + 1, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return x, at + binary.MaxVarintLen64, errVarintOverflow
}

// decodeColumnData decodes one column payload of n rows, walking the payload
// by index, into the storage buf holds — grown when it is too small, and
// left in buf for the next chunk. The column it returns has the type's
// representation alone. A String column stays in dictionary form, with the
// chunk's own dictionary; an entry whose bytes equal the string already at
// its index keeps that string, so a scan whose chunks share their
// dictionaries copies each string once.
func decodeColumnData(s telemetry.ColSpec, payload []byte, n int, buf *telemetry.Column) (telemetry.Column, error) {
	var cd telemetry.Column
	// Every encoding needs at least one byte per value (floats eight), so a
	// row count that outruns the payload is corruption — reject it before
	// sizing anything by n.
	minBytes := n
	if s.Type == telemetry.Float64 {
		minBytes = 8 * n
	}
	if n < 0 || minBytes > len(payload) {
		return cd, fmt.Errorf("row count %d exceeds %d payload bytes", n, len(payload))
	}
	switch s.Type {
	case telemetry.Int64:
		out := resize(buf.Ints, n)
		buf.Ints = out
		at, prev := 0, int64(0)
		for i := range out {
			var u uint64
			var err error
			if at < len(payload) && payload[at] < 0x80 {
				u, at = uint64(payload[at]), at+1
			} else if u, at, err = uvarint(payload, at); err != nil {
				return cd, err
			}
			prev += int64(u>>1) ^ -int64(u&1) // zig-zag
			out[i] = prev
		}
		cd.Ints = out
		return cd, nil
	case telemetry.Float64:
		out := resize(buf.Floats, n)
		buf.Floats = out
		for i := range out {
			out[i] = math.Float64frombits(le.Uint64(payload[8*i:]))
		}
		cd.Floats = out
		return cd, nil
	case telemetry.String:
		dictN, at, err := uvarint(payload, 0)
		if err != nil {
			return cd, err
		}
		// Each dictionary entry costs at least one byte (its length prefix).
		if dictN > uint64(len(payload)-at) {
			return cd, fmt.Errorf("dictionary size %d exceeds payload", dictN)
		}
		dict := resize(buf.Dict, int(dictN))
		buf.Dict = dict
		for i := range dict {
			var l uint64
			if l, at, err = uvarint(payload, at); err != nil {
				return cd, err
			}
			if l > uint64(len(payload)-at) {
				return cd, fmt.Errorf("dictionary entry length %d exceeds payload", l)
			}
			// A copy, never a view of the payload; the comparison does not
			// allocate.
			if b := payload[at : at+int(l)]; string(b) != dict[i] {
				dict[i] = string(b)
			}
			at += int(l)
		}
		out := resize(buf.IDs, n)
		buf.IDs = out
		for i := range out {
			var id uint64
			if at < len(payload) && payload[at] < 0x80 {
				id, at = uint64(payload[at]), at+1
			} else if id, at, err = uvarint(payload, at); err != nil {
				return cd, err
			}
			if id >= dictN || id > math.MaxUint32 {
				return cd, fmt.Errorf("dict id %d out of range %d", id, dictN)
			}
			out[i] = uint32(id)
		}
		cd.IDs = out
		cd.Dict = dict
		return cd, nil
	default:
		return cd, fmt.Errorf("unknown type %v", s.Type)
	}
}

// resize returns xs's storage at length n, reallocated only when it is too
// small: what it held stays in place, so the caller writes every element.
func resize[T any](xs []T, n int) []T {
	return slices.Grow(xs[:0], n)[:n]
}

// u32At reads the little-endian u32 at body[at:]; a body that ends first is
// io.EOF at the field's first byte and io.ErrUnexpectedEOF inside it.
func u32At(body []byte, at int) (uint32, error) {
	if at >= len(body) {
		return 0, io.EOF
	}
	if at+4 > len(body) {
		return 0, io.ErrUnexpectedEOF
	}
	return le.Uint32(body[at:]), nil
}

// Scratch is one scan's decode working memory: the body buffer of a Reader
// that reads chunks out of an io.ReaderAt, and per schema column the storage
// the decoder fills, reused from chunk to chunk, so a scan allocates one
// chunk's worth once. The zero value is ready to use. A Scratch belongs to
// one scan at a time, never to a Reader: concurrent queries over one Reader
// each hold their own.
type Scratch struct {
	body  []byte
	store []telemetry.Column // per column: its buffers, kept while unselected
	cols  []telemetry.Column // the last decode: store's selected columns, zero elsewhere
}

// decode walks a chunk body by index and decodes the selected columns (want
// == nil decodes all) into s. The returned slice is indexed by schema column
// index; unselected columns are zero Columns. It is s's, valid until s
// decodes again; the dictionary strings alone are the caller's to keep.
func (s *Scratch) decode(schema []telemetry.ColSpec, body []byte, want []bool) (int, []telemetry.Column, error) {
	nrows, err := u32At(body, 0)
	if err != nil {
		return 0, nil, err
	}
	at := 4
	n := int(nrows)
	if len(schema) == 0 && n > 0 {
		return 0, nil, fmt.Errorf("colfile: %d rows in a zero-column chunk", n)
	}
	if len(s.store) != len(schema) {
		s.store = make([]telemetry.Column, len(schema))
		s.cols = make([]telemetry.Column, len(schema))
	}
	clear(s.cols)
	for ci, sp := range schema {
		if at >= len(body) {
			return 0, nil, io.EOF
		}
		if body[at] == 1 {
			at += 16 // inline [min, max]
		}
		at++
		plen, err := u32At(body, at)
		if err != nil {
			return 0, nil, err
		}
		at += 4
		if int64(plen) > int64(len(body)-at) {
			return 0, nil, fmt.Errorf("colfile: column %q payload length %d exceeds chunk body", sp.Name, plen)
		}
		payload := body[at : at+int(plen)]
		at += int(plen)
		if want != nil && !want[ci] {
			continue
		}
		cd, err := decodeColumnData(sp, payload, n, &s.store[ci])
		if err != nil {
			return 0, nil, fmt.Errorf("colfile: column %q: %w", sp.Name, err)
		}
		s.cols[ci] = cd
	}
	return n, s.cols, nil
}

// parseHeader reads the file header from r, returning version, schema, and
// the header's byte length.
func parseHeader(r io.Reader) (byte, []telemetry.ColSpec, int64, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return 0, nil, 0, fmt.Errorf("colfile: reading magic: %w", err)
	}
	if m != magic {
		return 0, nil, 0, fmt.Errorf("colfile: bad magic")
	}
	var verByte [1]byte
	if _, err := io.ReadFull(r, verByte[:]); err != nil {
		return 0, nil, 0, err
	}
	ver := verByte[0]
	if ver != version2 {
		return 0, nil, 0, fmt.Errorf("colfile: unsupported version %d", ver)
	}
	var ncols uint16
	if err := binary.Read(r, binary.LittleEndian, &ncols); err != nil {
		return 0, nil, 0, err
	}
	hlen := int64(4 + 1 + 2)
	schema := make([]telemetry.ColSpec, ncols)
	seen := make(map[string]bool, ncols)
	for i := range schema {
		var nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return 0, nil, 0, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return 0, nil, 0, err
		}
		var typByte [1]byte
		if _, err := io.ReadFull(r, typByte[:]); err != nil {
			return 0, nil, 0, err
		}
		if typByte[0] > byte(telemetry.String) {
			return 0, nil, 0, fmt.Errorf("colfile: invalid column type %d", typByte[0])
		}
		if seen[string(name)] {
			return 0, nil, 0, fmt.Errorf("colfile: duplicate column %q in header", name)
		}
		seen[string(name)] = true
		schema[i] = telemetry.ColSpec{Name: string(name), Type: telemetry.ColType(typByte[0])}
		hlen += int64(2 + len(name) + 1)
	}
	return ver, schema, hlen, nil
}

// WriteFile writes t as a colfile at path (created or truncated), chunked
// like WriteTable.
func WriteFile(path string, t *telemetry.Table, chunkRows int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTable(f, t, chunkRows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTable writes t to w in chunks of chunkRows rows (0 = one chunk).
func WriteTable(w io.Writer, t *telemetry.Table, chunkRows int) error {
	cw, err := NewWriter(w, t.Schema())
	if err != nil {
		return err
	}
	n := t.NumRows()
	if chunkRows <= 0 {
		chunkRows = n
	}
	if n == 0 {
		if err := cw.WriteChunk(t); err != nil {
			return err
		}
		return cw.Finalize()
	}
	for lo := 0; lo < n; lo += chunkRows {
		hi := lo + chunkRows
		if hi > n {
			hi = n
		}
		if err := cw.WriteChunk(t.Slice(lo, hi)); err != nil {
			return err
		}
	}
	return cw.Finalize()
}
