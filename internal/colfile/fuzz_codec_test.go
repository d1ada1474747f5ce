package colfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"amrtools/internal/telemetry"
)

// fuzzSrc deals a fuzz input out as values; an exhausted input deals zeros.
type fuzzSrc struct {
	data []byte
	at   int
}

func (s *fuzzSrc) byte() byte {
	if s.at >= len(s.data) {
		return 0
	}
	s.at++
	return s.data[s.at-1]
}

func (s *fuzzSrc) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = s.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// fuzzColumns derives a schema of up to five typed columns and rows for it
// from src, leaning on the values the codec has edges at: int deltas that
// overflow, NaN / signed zeros / infinities, and dictionaries with unused,
// repeated, empty and NUL-bearing entries.
func fuzzColumns(src *fuzzSrc) ([]telemetry.ColSpec, []telemetry.Column) {
	ncols := int(src.byte() % 6)
	rows := int(src.byte() % 40)
	if ncols == 0 {
		rows = 0
	}
	specs := make([]telemetry.ColSpec, ncols)
	cols := make([]telemetry.Column, ncols)
	for ci := range specs {
		name := fmt.Sprintf("c%d", ci)
		switch src.byte() % 3 {
		case 0:
			specs[ci] = telemetry.IntCol(name)
			xs := make([]int64, rows)
			prev := int64(0)
			for i := range xs {
				switch src.byte() % 8 {
				case 0:
					xs[i] = 0
				case 1:
					xs[i] = math.MinInt64
				case 2:
					xs[i] = math.MaxInt64
				case 3:
					xs[i] = -1
				case 4, 5:
					xs[i] = prev + int64(int8(src.byte()))
				default:
					xs[i] = int64(src.u64())
				}
				prev = xs[i]
			}
			cols[ci].Ints = xs
		case 1:
			specs[ci] = telemetry.FloatCol(name)
			xs := make([]float64, rows)
			for i := range xs {
				switch src.byte() % 8 {
				case 0:
					xs[i] = math.NaN()
				case 1:
					xs[i] = 0
				case 2:
					xs[i] = math.Copysign(0, -1)
				case 3:
					xs[i] = math.Inf(1)
				case 4:
					xs[i] = math.Inf(-1)
				case 5:
					xs[i] = float64(int8(src.byte())) / 4
				default:
					xs[i] = math.Float64frombits(src.u64())
				}
			}
			cols[ci].Floats = xs
		default:
			specs[ci] = telemetry.StrCol(name)
			dict := make([]string, 1+src.byte()%6)
			for i := range dict {
				switch src.byte() % 6 {
				case 0:
					dict[i] = ""
				case 1, 2:
					dict[i] = "a" // very likely a repeat
				case 3:
					dict[i] = "\x00"
				case 4:
					dict[i] = "x\x00y"
				default:
					b := make([]byte, src.byte()%5)
					for k := range b {
						b[k] = src.byte()
					}
					dict[i] = string(b)
				}
			}
			ids := make([]uint32, rows)
			for i := range ids {
				ids[i] = uint32(src.byte()) % uint32(len(dict))
			}
			cols[ci].IDs, cols[ci].Dict = ids, dict
		}
	}
	return specs, cols
}

// sameColumns compares decoded columns cell by cell: floats by bit pattern,
// strings by value (a chunk's dictionary is its own).
func sameColumns(specs []telemetry.ColSpec, a, b []telemetry.Column) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d columns vs %d", len(a), len(b))
	}
	for ci, s := range specs {
		x, y := a[ci], b[ci]
		if len(x.Ints) != len(y.Ints) || len(x.Floats) != len(y.Floats) || len(x.IDs) != len(y.IDs) {
			return fmt.Errorf("column %q: row counts differ", s.Name)
		}
		for i := range x.Ints {
			if x.Ints[i] != y.Ints[i] {
				return fmt.Errorf("column %q row %d: %d vs %d", s.Name, i, x.Ints[i], y.Ints[i])
			}
		}
		for i := range x.Floats {
			if math.Float64bits(x.Floats[i]) != math.Float64bits(y.Floats[i]) {
				return fmt.Errorf("column %q row %d: %x vs %x", s.Name, i, math.Float64bits(x.Floats[i]), math.Float64bits(y.Floats[i]))
			}
		}
		for i := range x.IDs {
			if x.Dict[x.IDs[i]] != y.Dict[y.IDs[i]] {
				return fmt.Errorf("column %q row %d: %q vs %q", s.Name, i, x.Dict[x.IDs[i]], y.Dict[y.IDs[i]])
			}
		}
	}
	return nil
}

// decodeBoth runs the index decoder, into s, and the byte-reader oracle over
// body and fails unless they agree: on the error, word for word, or on every
// cell.
func decodeBoth(t *testing.T, what string, s *Scratch, specs []telemetry.ColSpec, body []byte, want []bool) (int, []telemetry.Column, error) {
	t.Helper()
	n, cols, err := s.decode(specs, body, want)
	on, ocols, oerr := oracleDecodeChunkBody(specs, body, want)
	if (err == nil) != (oerr == nil) || (err != nil && err.Error() != oerr.Error()) {
		t.Fatalf("%s: decoder says %v, oracle says %v", what, err, oerr)
	}
	if err != nil {
		return 0, nil, err
	}
	if n != on {
		t.Fatalf("%s: decoder read %d rows, oracle %d", what, n, on)
	}
	if err := sameColumns(specs, cols, ocols); err != nil {
		t.Fatalf("%s: decoder and oracle differ: %v", what, err)
	}
	return n, cols, nil
}

// FuzzCodec is the differential fuzzer of the chunk codec. A table derived
// from the input (and a view of it) must encode to the bytes the previous,
// buffer-per-column encoder wrote, twice over from one writer; both decoders
// must give the table back; and on a truncated, bit-flipped or row-count-
// patched body the two decoders must agree — same error or same cells, never
// a panic, never a slice sized by a count the payload cannot back. Every
// decode of one table reuses one Scratch, as a scan does, so whatever a
// decode leaves behind — a failed one's included — must not reach the next.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 9, 0, 1, 2, 6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 0, 5, 3, 0, 2, 4})
	f.Add([]byte("\x05\x27\x00\x01\x02\x01\x02\x04\x05\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09"))
	f.Add(bytes.Repeat([]byte{2, 17, 2, 5, 1, 3, 4, 0}, 12))
	f.Add(bytes.Repeat([]byte{0xfe, 0x01, 0x80, 0x7f}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSrc{data: data}
		specs, cols := fuzzColumns(src)
		whole, err := telemetry.FromColumns(specs, cols)
		if err != nil {
			t.Fatal(err)
		}
		lo := int(src.byte()) % (whole.NumRows() + 1)
		hi := lo + int(src.byte())%(whole.NumRows()-lo+1)
		for _, tab := range []*telemetry.Table{whole, whole.Slice(lo, hi)} {
			want, err := oracleChunkBody(specs, tab)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWriter(io.Discard, specs)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // the second chunk reuses body and scratch
				if err := w.WriteChunk(tab); err != nil {
					t.Fatal(err)
				}
				if got := w.body[4:]; !bytes.Equal(got, want) {
					t.Fatalf("pass %d: encoder wrote %d bytes, oracle %d:\n%x\n%x", pass, len(got), len(want), got, want)
				}
				if got := binary.LittleEndian.Uint32(w.body); int(got) != len(want) {
					t.Fatalf("length prefix %d, body %d", got, len(want))
				}
			}
			var scratch Scratch
			roundTrip := func(what string) {
				t.Helper()
				n, back, err := decodeBoth(t, what, &scratch, specs, want, nil)
				if err != nil {
					t.Fatalf("%s does not decode: %v", what, err)
				}
				if n != tab.NumRows() {
					t.Fatalf("%s: decoded %d rows of %d", what, n, tab.NumRows())
				}
				if err := sameColumns(specs, back, tab.Columns()); err != nil {
					t.Fatalf("%s: round trip: %v", what, err)
				}
			}
			roundTrip("valid body")

			// Projection: a fuzzed subset of the columns.
			mask := make([]bool, len(specs))
			for i := range mask {
				mask[i] = src.byte()%2 == 0
			}
			decodeBoth(t, "projection", &scratch, specs, want, mask)

			// Damage.
			for k := 0; k < 8; k++ {
				bad := bytes.Clone(want)
				pos := int(uint(src.byte())<<8|uint(src.byte())) % len(bad) // a body is never empty
				what := ""
				switch src.byte() % 3 {
				case 0:
					bad, what = bad[:pos], fmt.Sprintf("truncated to %d of %d", pos, len(want))
				case 1:
					bit := src.byte() % 8
					bad[pos] ^= 1 << bit
					what = fmt.Sprintf("bit %d of byte %d flipped", bit, pos)
				default:
					rows := uint32(src.u64())
					binary.LittleEndian.PutUint32(bad, rows)
					what = fmt.Sprintf("row count patched to %d", rows)
				}
				n, _, err := decodeBoth(t, what, &scratch, specs, bad, nil)
				// A count the body cannot back must be refused, not allocated.
				if err == nil && len(specs) > 0 && n > len(bad) {
					t.Fatalf("%s: decoded %d rows from %d bytes", what, n, len(bad))
				}
			}
			roundTrip("valid body after damage")
		}
	})
}

// TestChunkBodyLimit: a body's length is framed as a u32 that must not be
// the footer sentinel; WriteChunk asks checkBodyLen, tested here without a
// 4 GiB table.
func TestChunkBodyLimit(t *testing.T) {
	for _, n := range []int{0, 1, 1 << 20, footerSentinel - 1} {
		if err := checkBodyLen(n); err != nil {
			t.Fatalf("checkBodyLen(%d) = %v", n, err)
		}
	}
	for _, n := range []int{footerSentinel, 1 << 32, 1<<32 + 12, 5 << 32} {
		err := checkBodyLen(n)
		want := fmt.Sprintf("colfile: chunk body of %d bytes exceeds the format's 4 GiB limit (write smaller chunks)", n)
		if err == nil || err.Error() != want {
			t.Fatalf("checkBodyLen(%d) = %v, want %q", n, err, want)
		}
	}
}

// TestWriteChunkAllocBudget: a steady-state chunk of the span table's shape
// costs a handful of small objects — the table's schema and column headers,
// the zone slice, now and then a longer index — whatever its payload; the
// encoder used to grow a bytes.Buffer per column and another per chunk.
func TestWriteChunkAllocBudget(t *testing.T) {
	const rows = 8192
	var specs []telemetry.ColSpec
	var cols []telemetry.Column
	for i := 0; i < 7; i++ {
		xs := make([]int64, rows)
		for r := range xs {
			xs[r] = int64(r*(i+1)) % 1000003
		}
		specs, cols = append(specs, telemetry.IntCol(fmt.Sprintf("i%d", i))), append(cols, telemetry.Column{Ints: xs})
	}
	for i := 0; i < 3; i++ {
		xs := make([]float64, rows)
		for r := range xs {
			xs[r] = float64(r) * 0.125
		}
		specs, cols = append(specs, telemetry.FloatCol(fmt.Sprintf("f%d", i))), append(cols, telemetry.Column{Floats: xs})
	}
	ids := make([]uint32, rows)
	for r := range ids {
		ids[r] = uint32(r % 14)
	}
	specs = append(specs, telemetry.StrCol("kind"))
	cols = append(cols, telemetry.Column{IDs: ids, Dict: strings.Fields("a b c d e f g h i j k l m n")})
	tab, err := telemetry.FromColumns(specs, cols)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(io.Discard, specs)
	if err != nil {
		t.Fatal(err)
	}
	write := func() {
		if err := w.WriteChunk(tab); err != nil {
			t.Fatal(err)
		}
	}
	write() // sizes the body and the scratch
	allocs := testing.AllocsPerRun(50, write)
	t.Logf("%.1f allocs per steady-state WriteChunk", allocs)
	if allocs > 5 {
		t.Fatalf("a steady-state WriteChunk of %d x %d allocates %.1f objects, want <= 5", rows, len(specs), allocs)
	}
}

// TestUvarintMatchesByteReader: the index varint reader is
// binary.ReadUvarint over a slice — value, bytes consumed and error — at
// every edge of the encoding.
func TestUvarintMatchesByteReader(t *testing.T) {
	ff := bytes.Repeat([]byte{0xff}, 12)
	cases := [][]byte{
		{}, {0}, {0x7f}, {0x80}, {0x80, 0x01}, {0xff, 0xff},
		append(bytes.Clone(ff[:9]), 0x01),       // 2^64 - 1
		append(bytes.Clone(ff[:9]), 0x02),       // overflows in the tenth byte
		append(bytes.Clone(ff[:9]), 0x81, 0x00), // an eleventh byte
		ff[:9], ff[:10], ff,
	}
	for _, p := range cases {
		for at := 0; at <= len(p); at++ {
			br := bytes.NewReader(p[at:])
			want, werr := binary.ReadUvarint(br)
			got, next, err := uvarint(p, at)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("%x at %d: error %v, ReadUvarint says %v", p, at, err, werr)
			}
			if err == nil && (got != want || next != len(p)-br.Len()) {
				t.Fatalf("%x at %d: %d up to %d, ReadUvarint says %d up to %d", p, at, got, next, want, len(p)-br.Len())
			}
		}
	}
}
