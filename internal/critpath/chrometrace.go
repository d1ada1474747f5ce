package critpath

import (
	"io"

	"amrtools/internal/trace"
)

// WriteChromeTrace serializes the trace as Chrome trace-event JSON
// (trace.ChromeEvent) for visual inspection of a synchronization window: one
// timeline row per rank, one duration slice per task, and flow arrows for
// every cross-rank data dependency. Tasks on the critical path (if res is
// non-nil) carry an "onCriticalPath" arg so they can be highlighted.
func (tr *Trace) WriteChromeTrace(w io.Writer, res *Result) error {
	onPath := map[int]bool{}
	if res != nil {
		for _, id := range res.Path {
			onPath[id] = true
		}
	}
	var events []trace.ChromeEvent
	flowID := 0
	for _, t := range tr.tasks {
		args := map[string]interface{}{"kind": t.Kind.String()}
		if onPath[t.ID] {
			args["onCriticalPath"] = true
		}
		dur := (t.End - t.Start) * 1e6
		if dur <= 0 {
			dur = 0.01 // zero-width posts still need visible slices
		}
		events = append(events, trace.ChromeEvent{
			Name: t.Label, Cat: t.Kind.String(), Ph: "X",
			Ts: t.Start * 1e6, Dur: dur,
			Pid: 0, Tid: t.Rank, Args: args,
		})
		for _, d := range t.Deps {
			dep := tr.tasks[d]
			if dep.Rank == t.Rank {
				continue // same-row ordering is visually implicit
			}
			flowID++
			events = append(events,
				trace.ChromeEvent{Name: "msg", Cat: "dep", Ph: "s", ID: flowID,
					Ts: dep.End * 1e6, Pid: 0, Tid: dep.Rank},
				trace.ChromeEvent{Name: "msg", Cat: "dep", Ph: "f", ID: flowID,
					Ts: t.Start * 1e6, Pid: 0, Tid: t.Rank, BP: "e"},
			)
		}
	}
	return trace.WriteChromeEvents(w, events)
}
