package colfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"amrtools/internal/telemetry"
)

// The codec as it stood before it became one pass each way: an encoder that
// builds every column payload in its own bytes.Buffer and copies it into a
// per-chunk one through binary.Write, and a decoder that pulls one byte at a
// time through bytes.Reader. They are the oracles FuzzCodec holds the codec
// of colfile.go to: same bytes out, same columns and same errors back.

// oracleChunkBody encodes t as one chunk body.
func oracleChunkBody(schema []telemetry.ColSpec, t *telemetry.Table) ([]byte, error) {
	var body bytes.Buffer
	binary.Write(&body, binary.LittleEndian, uint32(t.NumRows()))
	cols := t.Columns()
	for ci, s := range schema {
		payload, z, err := oracleEncodeColumn(s, cols[ci])
		if err != nil {
			return nil, err
		}
		if z.HasRange {
			body.WriteByte(1)
			binary.Write(&body, binary.LittleEndian, z.Min)
			binary.Write(&body, binary.LittleEndian, z.Max)
		} else {
			body.WriteByte(0)
		}
		binary.Write(&body, binary.LittleEndian, uint32(len(payload)))
		body.Write(payload)
	}
	return body.Bytes(), nil
}

func oracleEncodeColumn(s telemetry.ColSpec, c telemetry.Column) ([]byte, ZoneMap, error) {
	var buf bytes.Buffer
	var z ZoneMap
	switch s.Type {
	case telemetry.Int64:
		xs := c.Ints
		var tmp [binary.MaxVarintLen64]byte
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
			n := binary.PutVarint(tmp[:], v-prev) // signed varint = zigzag
			buf.Write(tmp[:n])
			prev = v
		}
		z.Count = int64(len(xs))
		z.HasRange = len(xs) > 0
		z.HasSum = len(xs) > 0
	case telemetry.Float64:
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
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			buf.Write(b[:])
		}
		z.Count = int64(len(xs))
		z.HasRange = len(xs) > 0 && !sawNaN
		z.HasSum = z.HasRange
	case telemetry.String:
		remap := make([]uint32, len(c.Dict))
		var dict []uint32 // table ids, in chunk-id order
		for _, id := range c.IDs {
			if remap[id] == 0 {
				dict = append(dict, id)
				remap[id] = uint32(len(dict))
			}
		}
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], uint64(len(dict)))
		buf.Write(tmp[:n])
		for _, id := range dict {
			n := binary.PutUvarint(tmp[:], uint64(len(c.Dict[id])))
			buf.Write(tmp[:n])
			buf.WriteString(c.Dict[id])
		}
		for _, id := range c.IDs {
			n := binary.PutUvarint(tmp[:], uint64(remap[id]-1))
			buf.Write(tmp[:n])
		}
		z.Count = int64(len(c.IDs))
	default:
		return nil, z, fmt.Errorf("colfile: unknown column type %v", s.Type)
	}
	return buf.Bytes(), z, nil
}

func oracleDecodeColumnData(s telemetry.ColSpec, payload []byte, n int) (telemetry.Column, error) {
	var cd telemetry.Column
	minBytes := n
	if s.Type == telemetry.Float64 {
		minBytes = 8 * n
	}
	if n < 0 || minBytes > len(payload) {
		return cd, fmt.Errorf("row count %d exceeds %d payload bytes", n, len(payload))
	}
	buf := bytes.NewReader(payload)
	switch s.Type {
	case telemetry.Int64:
		out := make([]int64, n)
		prev := int64(0)
		for i := 0; i < n; i++ {
			d, err := binary.ReadVarint(buf)
			if err != nil {
				return cd, err
			}
			prev += d
			out[i] = prev
		}
		cd.Ints = out
		return cd, nil
	case telemetry.Float64:
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i : 8*i+8]))
		}
		cd.Floats = out
		return cd, nil
	case telemetry.String:
		dictN, err := binary.ReadUvarint(buf)
		if err != nil {
			return cd, err
		}
		if dictN > uint64(buf.Len()) {
			return cd, fmt.Errorf("dictionary size %d exceeds payload", dictN)
		}
		dict := make([]string, dictN)
		for i := range dict {
			l, err := binary.ReadUvarint(buf)
			if err != nil {
				return cd, err
			}
			if l > uint64(buf.Len()) {
				return cd, fmt.Errorf("dictionary entry length %d exceeds payload", l)
			}
			b := make([]byte, l)
			if _, err := io.ReadFull(buf, b); err != nil {
				return cd, err
			}
			dict[i] = string(b)
		}
		out := make([]uint32, n)
		for i := 0; i < n; i++ {
			id, err := binary.ReadUvarint(buf)
			if err != nil {
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

func oracleDecodeChunkBody(schema []telemetry.ColSpec, body []byte, want []bool) (int, []telemetry.Column, error) {
	buf := bytes.NewReader(body)
	var nrows uint32
	if err := binary.Read(buf, binary.LittleEndian, &nrows); err != nil {
		return 0, nil, err
	}
	n := int(nrows)
	if len(schema) == 0 && n > 0 {
		return 0, nil, fmt.Errorf("colfile: %d rows in a zero-column chunk", n)
	}
	cols := make([]telemetry.Column, len(schema))
	for ci, s := range schema {
		flag, err := buf.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		if flag == 1 {
			if _, err := buf.Seek(16, io.SeekCurrent); err != nil {
				return 0, nil, err
			}
		}
		var plen uint32
		if err := binary.Read(buf, binary.LittleEndian, &plen); err != nil {
			return 0, nil, err
		}
		if int64(plen) > int64(buf.Len()) {
			return 0, nil, fmt.Errorf("colfile: column %q payload length %d exceeds chunk body", s.Name, plen)
		}
		if want != nil && !want[ci] {
			if _, err := buf.Seek(int64(plen), io.SeekCurrent); err != nil {
				return 0, nil, err
			}
			continue
		}
		start := len(body) - buf.Len()
		payload := body[start : start+int(plen)]
		if _, err := buf.Seek(int64(plen), io.SeekCurrent); err != nil {
			return 0, nil, err
		}
		cd, err := oracleDecodeColumnData(s, payload, n)
		if err != nil {
			return 0, nil, fmt.Errorf("colfile: column %q: %w", s.Name, err)
		}
		cols[ci] = cd
	}
	return n, cols, nil
}
