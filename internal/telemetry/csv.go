package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the table as CSV with a header row — the format of the
// paper's first-generation pipeline (TAU plugins emitting CSVs for pandas,
// §IV-C) before parsing cost forced the move to the binary columnar format.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, t.NumCols())
	for i, s := range t.Schema() {
		header[i] = s.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, t.NumCols())
	for r := 0; r < t.rows; r++ {
		for i, c := range t.cols {
			switch c.spec.Type {
			case Int64:
				row[i] = strconv.FormatInt(c.Ints[r], 10)
			case Float64:
				row[i] = strconv.FormatFloat(c.Floats[r], 'g', -1, 64)
			case String:
				row[i] = c.Dict[c.IDs[r]]
			default:
				panic("telemetry: unknown column type")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses CSV (with header) into a table, inferring column types
// from the first data row: int64 if it parses as an integer, float64 if it
// parses as a float, string otherwise. An empty body yields a zero-row
// table of string columns.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("telemetry: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("telemetry: csv has no header")
	}
	header := records[0]
	body := records[1:]
	specs := make([]ColSpec, len(header))
	for i, name := range header {
		typ := String
		if len(body) > 0 {
			v := body[0][i]
			if _, err := strconv.ParseInt(v, 10, 64); err == nil {
				typ = Int64
			} else if _, err := strconv.ParseFloat(v, 64); err == nil {
				typ = Float64
			}
		}
		specs[i] = ColSpec{Name: name, Type: typ}
	}
	t := NewTable(specs...)
	vals := make([]interface{}, len(specs))
	for rowIdx, rec := range body {
		for i, s := range specs {
			switch s.Type {
			case Int64:
				v, err := strconv.ParseInt(rec[i], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("telemetry: csv row %d col %q: %v", rowIdx+1, s.Name, err)
				}
				vals[i] = v
			case Float64:
				v, err := strconv.ParseFloat(rec[i], 64)
				if err != nil {
					return nil, fmt.Errorf("telemetry: csv row %d col %q: %v", rowIdx+1, s.Name, err)
				}
				vals[i] = v
			case String:
				vals[i] = rec[i]
			default:
				panic("telemetry: unknown column type")
			}
		}
		t.Append(vals...)
	}
	return t, nil
}
