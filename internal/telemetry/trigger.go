package telemetry

// Watcher evaluates programmable triggers over a table as rows stream in —
// the paper's §IV-C requirement ("programmable telemetry triggers based on
// reconstructed application state"): instead of collecting everything
// always, a trigger arms heavier collection (wait-event capture, trace
// dumps) the moment a condition appears in the live telemetry.
type Watcher struct {
	t        *Table
	triggers []*trigger
}

type trigger struct {
	name  string
	when  func(t *Table, row int) bool
	fire  func(row int)
	once  bool
	fired int
}

// NewWatcher wraps a table; whoever appends rows to it reports each one with
// Observe so triggers see them.
func NewWatcher(t *Table) *Watcher { return &Watcher{t: t} }

// OnRow registers a trigger: when(t, row) is evaluated for every appended
// row; fire(row) runs on match. Triggers fire at most once when once is
// true.
func (w *Watcher) OnRow(name string, once bool, when func(t *Table, row int) bool, fire func(row int)) {
	w.triggers = append(w.triggers, &trigger{name: name, when: when, fire: fire, once: once})
}

// Observe evaluates every armed trigger against a row already appended to
// the table (the driver's step loop appends, then observes).
func (w *Watcher) Observe(row int) {
	for _, tr := range w.triggers {
		if tr.once && tr.fired > 0 {
			continue
		}
		if tr.when(w.t, row) {
			tr.fired++
			tr.fire(row)
		}
	}
}

// FireCounts reports how many times each trigger fired.
func (w *Watcher) FireCounts() map[string]int {
	out := make(map[string]int, len(w.triggers))
	for _, tr := range w.triggers {
		out[tr.name] = tr.fired
	}
	return out
}
