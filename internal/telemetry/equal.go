// Table equality and the sim-plane view. Experiment tables mix two kinds of
// columns: simulated values, which the deterministic simulation reproduces
// bit-for-bit across worker counts and hosts, and host readings (the harness
// recorder's wall_ms and heap columns, Fig 7c's placement_ms and its budget
// verdict), which never repeat. Each column's schema says which it is
// (ColSpec.Plane), so an identity check compares Sim views:
// Equal(a.Sim(), b.Sim()).
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

// Sim returns the table without its host-plane columns, the part every
// identity check compares: Without(t.HostCols()...).
func (t *Table) Sim() *Table { return t.Without(t.HostCols()...) }

// HostCols names the table's host-plane columns in schema order.
func (t *Table) HostCols() (names []string) {
	for _, c := range t.cols {
		if c.spec.Plane == HostPlane {
			names = append(names, c.spec.Name)
		}
	}
	return names
}

// Equal reports whether two tables have the same schema, planes included,
// and bit-identical cell values (floats compare by value, so NaN != NaN: a
// NaN cell means a computation bug upstream and must not slip through an
// identity check).
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
