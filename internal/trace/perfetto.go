package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"amrtools/internal/telemetry"
)

// ChromeEvent is one event of the Chrome trace-event format (the Catapult
// JSON of the paper's ref [42]), loadable in Perfetto or chrome://tracing: a
// duration slice ("ph":"X"), a metadata record ("M"), or one end of a flow
// arrow ("s"/"f", the pair sharing an ID). Optional fields are omitted when
// zero, so each phase encodes only its own fields.
type ChromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	ID   int                    `json:"id,omitempty"`
	Ts   float64                `json:"ts"`            // microseconds
	Dur  float64                `json:"dur,omitempty"` // microseconds
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	BP   string                 `json:"bp,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// WriteChromeEvents writes events as one trace-event JSON document,
// {"traceEvents":[...]}, newline-terminated.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}{events})
}

// WritePerfetto serializes a span table (trace.Schema layout, from a
// Recorder or a span colfile) as Chrome trace-event JSON, the format
// critpath.WriteChromeTrace writes for one synchronization window, here
// covering the whole run: pid 0, tid = rank (one timeline row per rank), a
// thread_name metadata event per rank, and one duration slice per span
// carrying peer/bytes/tag/step/epoch as args. Output is deterministic
// for a given input table.
func WritePerfetto(w io.Writer, t *telemetry.Table) error {
	for _, name := range []string{"rank", "kind", "t0", "t1", "peer", "bytes", "tag", "step", "epoch"} {
		if !t.HasCol(name) {
			return fmt.Errorf("trace: span table missing column %q", name)
		}
	}
	ranks := t.Ints("rank")
	kinds := t.Strings("kind")
	t0s, t1s := t.Floats("t0"), t.Floats("t1")
	peers, bytes := t.Ints("peer"), t.Ints("bytes")
	tags, steps, epochs := t.Ints("tag"), t.Ints("step"), t.Ints("epoch")

	events := make([]ChromeEvent, 0, t.NumRows())
	named := map[int64]bool{}
	for r := 0; r < t.NumRows(); r++ {
		if !named[ranks[r]] {
			named[ranks[r]] = true
			events = append(events, ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: 0, Tid: int(ranks[r]),
				Args: map[string]interface{}{"name": fmt.Sprintf("rank %d", ranks[r])},
			})
		}
		dur := (t1s[r] - t0s[r]) * 1e6
		if dur <= 0 {
			dur = 0.01 // zero-width posts still need visible slices
		}
		args := map[string]interface{}{"step": steps[r], "epoch": epochs[r]}
		if peers[r] >= 0 {
			args["peer"] = peers[r]
		}
		if bytes[r] > 0 {
			args["bytes"] = bytes[r]
		}
		if tags[r] >= 0 {
			args["tag"] = tags[r]
		}
		events = append(events, ChromeEvent{
			Name: kinds[r], Cat: kinds[r], Ph: "X",
			Ts: t0s[r] * 1e6, Dur: dur,
			Pid: 0, Tid: int(ranks[r]), Args: args,
		})
	}
	return WriteChromeEvents(w, events)
}
