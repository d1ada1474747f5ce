package telemetry

import (
	"encoding/csv"
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
			ch, at := c.cell(r)
			switch c.spec.Type {
			case Int64:
				row[i] = strconv.FormatInt(ch.Ints[at], 10)
			case Float64:
				row[i] = strconv.FormatFloat(ch.Floats[at], 'g', -1, 64)
			case String:
				row[i] = c.Dict[ch.IDs[at]]
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
