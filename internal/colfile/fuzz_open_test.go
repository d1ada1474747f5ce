package colfile_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
)

// driveTable runs a table that came out of a file through everything
// downstream of a reader: the views, the gather, grouping, a tql string
// predicate over each string column, and the writer. Decoded tables adopt
// the file's dictionaries, so this is where a repeated, unused or otherwise
// odd dictionary entry would bite. It returns the re-encoded file.
func driveTable(t *testing.T, tb *telemetry.Table) []byte {
	t.Helper()
	_ = tb.Head(tb.NumRows() / 2).Render(0)
	for _, s := range tb.Schema() {
		sorted := tb.SortBy(s.Name, true)
		_ = sorted.GroupBy([]string{s.Name}, []telemetry.AggSpec{{Func: telemetry.Count}})
		if s.Type != telemetry.String {
			continue
		}
		// A column name that is no TQL identifier is a parse error, which
		// is as good an outcome here as a result.
		q := fmt.Sprintf("SELECT %[1]s, count(*) AS n FROM t WHERE %[1]s >= 'a' AND NOT %[1]s = 'b' GROUP BY %[1]s", s.Name)
		_, _ = tql.Run(q, map[string]*telemetry.Table{"t": tb})
	}
	var buf bytes.Buffer
	if err := colfile.WriteTable(&buf, tb, 2); err != nil {
		t.Fatalf("re-WriteTable: %v", err)
	}
	return buf.Bytes()
}

// FuzzOpen asserts the seekable reader — footer index parse included —
// never panics, that any index it does accept is safe to decode, and that
// whatever decodes is safe to use: a decoded dictionary is outside input.
func FuzzOpen(f *testing.F) {
	for _, s := range colfile.SeedFiles(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := colfile.OpenBytes(data)
		if err != nil {
			return
		}
		// An accepted index must be fully traversable without panics.
		if tb, err := r.Table(); err == nil {
			driveTable(t, tb)
		}
		for i := 0; i < r.NumChunks(); i++ {
			want := make([]bool, len(r.Schema()))
			if len(want) > 0 {
				want[0] = true
			}
			_, _, _ = r.DecodeColumns(i, want)
			if chunk, err := r.DecodeChunk(i); err == nil {
				driveTable(t, chunk)
			}
		}
	})
}

// TestHostileDictionary: a chunk dictionary with a repeated and an unused
// entry (see hostileDictFile) reads as the values it spells — through the
// adopting DecodeChunk, the gathering Table, every operator and tql. The
// gathered table is written back exactly as the same values appended by hand
// would be; the adopted one, which still carries the repeat, at least
// round-trips.
func TestHostileDictionary(t *testing.T) {
	clean := telemetry.NewTable(telemetry.StrCol("s"), telemetry.IntCol("v"))
	clean.Append("a", 1)
	clean.Append("a", 2)
	clean.Append("a", 3)
	var want bytes.Buffer
	if err := colfile.WriteTable(&want, clean, 2); err != nil {
		t.Fatal(err)
	}

	r, err := colfile.OpenBytes(colfile.HostileDictFile())
	if err != nil {
		t.Fatal(err)
	}
	cols, n, err := r.DecodeColumns(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := cols[0]; n != 3 || !reflect.DeepEqual(s.Dict, []string{"a", "a", "c"}) || !reflect.DeepEqual(s.IDs, []uint32{0, 1, 0}) {
		t.Fatalf("the seed lost its hostile dictionary: %d rows of s decode as %+v", n, s)
	}
	adopted, err := r.DecodeChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	gathered, err := r.Table()
	if err != nil {
		t.Fatal(err)
	}
	for name, tb := range map[string]*telemetry.Table{"DecodeChunk": adopted, "Table": gathered} {
		if !telemetry.Equal(tb, clean) {
			t.Fatalf("%s:\n%swant\n%s", name, tb.Render(0), clean.Render(0))
		}
		rewritten := driveTable(t, tb)
		if name == "Table" && !bytes.Equal(rewritten, want.Bytes()) {
			t.Errorf("%s: re-encoded file differs from the hand-built table's", name)
		}
		if r2, err := colfile.OpenBytes(rewritten); err != nil {
			t.Errorf("%s: re-encoded file: %v", name, err)
		} else if back, err := r2.Table(); err != nil || !telemetry.Equal(back, clean) {
			t.Errorf("%s: re-encoded file reads back as (err %v)\n%s", name, err, back.Render(0))
		}
		g := tb.GroupBy([]string{"s"}, []telemetry.AggSpec{{Func: telemetry.Sum, Col: "v"}})
		if g.NumRows() != 1 || g.Floats("sum_v")[0] != 6 {
			t.Errorf("%s: GroupBy split or lost the repeated entry:\n%s", name, g.Render(0))
		}
		out, err := tql.Run("SELECT count(*) AS n FROM t WHERE s = 'a'", map[string]*telemetry.Table{"t": tb})
		if err != nil || out.Floats("n")[0] != 3 {
			t.Errorf("%s: tql counted %v (err %v), want 3", name, out, err)
		}
		// Appending a value the dictionary holds twice must not corrupt it.
		tb.Append("a", 4)
		tb.Append("c", 5)
		if got := tb.Strings("s"); got[3] != "a" || got[4] != "c" {
			t.Errorf("%s: after appends s = %v", name, got)
		}
	}
}
