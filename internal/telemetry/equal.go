// Table equality with a nondeterministic-column mask. Experiment tables mix
// two kinds of columns: virtual-time results, which the deterministic
// simulation reproduces bit-for-bit across worker counts and hosts, and
// wall-clock measurements (harness wall_ms, Fig 7c's placement_ms and its
// derived budget verdict), which never repeat. Identity checks — the
// differential campaign, the j1-vs-jN tests — must compare only the former;
// before this helper each comparison had to carve wall columns out by hand
// or drop the table from the check entirely.
package telemetry

import "fmt"

// Without returns the table with the named columns removed — the complement
// of Select, and like it a view sharing t's storage. Naming a column the
// table does not have panics, so a stale mask entry fails loudly instead of
// silently comparing nothing.
func (t *Table) Without(names ...string) *Table {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		if !t.HasCol(n) {
			panic(fmt.Sprintf("telemetry: Without(%q): no such column", n))
		}
		drop[n] = true
	}
	pick := make([]*column, 0, len(t.cols))
	for _, c := range t.cols {
		if !drop[c.spec.Name] {
			pick = append(pick, c)
		}
	}
	return t.view(pick, 0, t.rows)
}

// Equal reports whether two tables have the same schema and bit-identical
// cell values (floats compare by value, so NaN != NaN: a NaN cell means a
// computation bug upstream and must not slip through an identity check).
func Equal(a, b *Table) bool {
	if a.rows != b.rows || len(a.cols) != len(b.cols) {
		return false
	}
	for i, ca := range a.cols {
		cb := b.cols[i]
		if ca.spec != cb.spec {
			return false
		}
		switch ca.spec.Type {
		case Int64:
			for r := range ca.Ints {
				if ca.Ints[r] != cb.Ints[r] {
					return false
				}
			}
		case Float64:
			for r := range ca.Floats {
				if ca.Floats[r] != cb.Floats[r] {
					return false
				}
			}
		case String:
			for r := range ca.IDs {
				if ca.Dict[ca.IDs[r]] != cb.Dict[cb.IDs[r]] {
					return false
				}
			}
		}
	}
	return true
}

// EqualMasked reports whether two tables are Equal after removing the named
// nondeterministic columns. Mask names a table does not have are skipped for
// that table, so one shared mask list (wall_ms, placement_ms, ...) works
// across campaigns with different schemas; a name present in only one table
// still compares unequal, because the schemas diverge after masking.
func EqualMasked(a, b *Table, nondet ...string) bool {
	return Equal(dropPresent(a, nondet), dropPresent(b, nondet))
}

func dropPresent(t *Table, names []string) *Table {
	present := names[:0:0]
	for _, n := range names {
		if t.HasCol(n) {
			present = append(present, n)
		}
	}
	if len(present) == 0 {
		return t
	}
	return t.Without(present...)
}
