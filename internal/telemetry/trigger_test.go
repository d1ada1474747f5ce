package telemetry

import "testing"

func watchTable() *Table {
	return NewTable(IntCol("step"), FloatCol("comm"))
}

// watched is a table under a watcher, fed the way the driver feeds its step
// table: append the row, then report it.
type watched struct {
	*Watcher
	tab *Table
}

func watch(tab *Table) watched { return watched{NewWatcher(tab), tab} }

func (w watched) Append(vals ...interface{}) {
	w.tab.Append(vals...)
	w.Observe(w.tab.NumRows() - 1)
}

func TestWatcherOnceSemantics(t *testing.T) {
	w := watch(watchTable())
	fired := 0
	w.OnRow("spike", true, func(t *Table, row int) bool {
		return t.Floats("comm")[row] > 1
	}, func(int) { fired++ })

	w.Append(0, 0.5)
	w.Append(1, 2.0) // fires
	w.Append(2, 3.0) // would match, but once-trigger already fired
	w.Append(3, 5.0)
	if fired != 1 {
		t.Fatalf("once trigger fired %d times, want 1", fired)
	}
	if got := w.FireCounts()["spike"]; got != 1 {
		t.Fatalf("FireCounts = %d, want 1", got)
	}
}

func TestWatcherRepeatingTrigger(t *testing.T) {
	w := watch(watchTable())
	var rows []int
	w.OnRow("every", false, func(t *Table, row int) bool {
		return t.Floats("comm")[row] > 1
	}, func(row int) { rows = append(rows, row) })

	w.Append(0, 2.0)
	w.Append(1, 0.1)
	w.Append(2, 2.0)
	w.Append(3, 2.0)
	if len(rows) != 3 {
		t.Fatalf("repeating trigger fired on rows %v, want 3 firings", rows)
	}
	if rows[0] != 0 || rows[1] != 2 || rows[2] != 3 {
		t.Fatalf("fired rows = %v, want [0 2 3]", rows)
	}
	if got := w.FireCounts()["every"]; got != 3 {
		t.Fatalf("FireCounts = %d, want 3", got)
	}
}

func TestWatcherMultiTriggerOrdering(t *testing.T) {
	w := watch(watchTable())
	var order []string
	always := func(t *Table, row int) bool { return true }
	w.OnRow("first", false, always, func(int) { order = append(order, "first") })
	w.OnRow("second", false, always, func(int) { order = append(order, "second") })
	w.OnRow("third", true, always, func(int) { order = append(order, "third") })

	w.Append(0, 1.0)
	w.Append(1, 1.0)
	want := []string{"first", "second", "third", "first", "second"}
	if len(order) != len(want) {
		t.Fatalf("firing order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order %v, want %v (registration order, once-trigger retired)", order, want)
		}
	}
	counts := w.FireCounts()
	if counts["first"] != 2 || counts["second"] != 2 || counts["third"] != 1 {
		t.Fatalf("FireCounts = %v", counts)
	}
}

func TestWatcherFireCountsNeverFired(t *testing.T) {
	w := watch(watchTable())
	w.OnRow("silent", true, func(t *Table, row int) bool { return false }, func(int) {
		t.Fatal("condition never matches")
	})
	w.Append(0, 0.0)
	if got := w.FireCounts()["silent"]; got != 0 {
		t.Fatalf("never-matching trigger recorded %d firings", got)
	}
}

func TestWatcherObserveExternalRows(t *testing.T) {
	// Rows appended directly to the table (the driver's step loop does this)
	// are evaluated through Observe.
	tab := watchTable()
	w := watch(tab)
	var rows []int
	w.OnRow("spike", false, func(t *Table, row int) bool {
		return t.Floats("comm")[row] > 1
	}, func(row int) { rows = append(rows, row) })

	tab.Append(0, 2.0)
	w.Observe(tab.NumRows() - 1)
	tab.Append(1, 0.5)
	w.Observe(tab.NumRows() - 1)
	tab.Append(2, 4.0)
	w.Observe(tab.NumRows() - 1)
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Fatalf("Observe fired on rows %v, want [0 2]", rows)
	}
	w.Append(3, 9.0)
	if len(rows) != 3 || rows[2] != 3 {
		t.Fatalf("a further row fired on rows %v, want [0 2 3]", rows)
	}
}
