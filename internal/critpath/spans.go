package critpath

import (
	"fmt"
	"sort"

	"amrtools/internal/telemetry"
)

// message identifies one point-to-point message the way MPI matches it.
type message struct{ src, dst, tag int64 }

// FromSpans rebuilds the synchronization window of one timestep from a
// flight-recorder span table (trace.Schema layout, from a live
// Recorder.Table() or a span colfile; each rank's rows oldest to newest).
// Every compute span of the step becomes a Compute task, every isend a Post
// task, and each rank's receives collapse into one Wait task — from its
// first blocked recv_wait (or, when every message had already arrived, from
// the return of its last post) to the end of its last recv_wait — that
// depends on the Post task of every message the rank's irecvs name. Tasks
// are numbered in completion order, ties by rank and then program order.
//
// FromSpans refuses a window it cannot analyse whole: a table without the
// span columns, a step with no spans, a rank whose ring had already evicted
// the start of the step (for step > 0: its earliest retained in-loop span
// belongs to step or later), and a receive whose send is not in the window.
func FromSpans(spans *telemetry.Table, step int) (*Trace, error) {
	for _, name := range []string{"rank", "kind", "t0", "t1", "peer", "tag", "step"} {
		if !spans.HasCol(name) {
			return nil, fmt.Errorf("critpath: span table missing column %q", name)
		}
	}
	ranks, kinds := spans.Ints("rank"), spans.Strings("kind")
	t0s, t1s := spans.Floats("t0"), spans.Floats("t1")
	peers, tags, steps := spans.Ints("peer"), spans.Ints("tag"), spans.Ints("step")

	// rankWindow is one rank's side of the window.
	type rankWindow struct {
		computes   int
		recvs      []message // in irecv order
		lastPost   int       // row of the rank's last isend/irecv: the wait follows it
		start, end float64   // the ghost wait
		blocked    bool      // a recv_wait span set start
	}
	type pending struct {
		Task
		row   int       // program-order key within the rank
		sends message   // Post: the message it posts
		recvs []message // Wait: the messages it waits for
	}
	var tasks []pending
	windows := map[int64]*rankWindow{}
	earliest := map[int64]int64{} // rank → earliest retained in-loop step
	for r := 0; r < spans.NumRows(); r++ {
		rank := ranks[r]
		if steps[r] < 0 {
			continue // out-of-loop (health probes)
		}
		if e, ok := earliest[rank]; !ok || steps[r] < e {
			earliest[rank] = steps[r]
		}
		if steps[r] != int64(step) {
			continue
		}
		if t1s[r] < t0s[r] {
			return nil, fmt.Errorf("critpath: rank %d step %d: %s span ends before it starts", rank, step, kinds[r])
		}
		w := windows[rank]
		if w == nil {
			w = &rankWindow{}
			windows[rank] = w
		}
		switch kinds[r] {
		case "compute":
			tasks = append(tasks, pending{row: r, Task: Task{Rank: int(rank), Kind: Compute,
				Label: fmt.Sprintf("compute #%d", w.computes), Start: t0s[r], End: t1s[r]}})
			w.computes++
		case "isend":
			tasks = append(tasks, pending{row: r, sends: message{src: rank, dst: peers[r], tag: tags[r]},
				Task: Task{Rank: int(rank), Kind: Post,
					Label: fmt.Sprintf("send t%d", tags[r]), Start: t0s[r], End: t1s[r]}})
		case "irecv":
			w.recvs = append(w.recvs, message{src: peers[r], dst: rank, tag: tags[r]})
		case "recv_wait":
			if !w.blocked {
				w.blocked = true
				w.start = t0s[r]
			}
			w.end = t1s[r]
		}
		if k := kinds[r]; k == "isend" || k == "irecv" {
			w.lastPost = r
			if !w.blocked {
				w.start, w.end = t1s[r], t1s[r]
			}
		}
	}

	evicted := int64(-1)
	for rank, e := range earliest {
		if step > 0 && e >= int64(step) && (evicted < 0 || rank < evicted) {
			evicted = rank
		}
	}
	if evicted >= 0 {
		return nil, fmt.Errorf("critpath: rank %d's earliest retained span is in step %d: the window of step %d is truncated (raise trace.Config.PerRankCap)",
			evicted, earliest[evicted], step)
	}
	if len(windows) == 0 {
		return nil, fmt.Errorf("critpath: no spans for step %d", step)
	}

	for rank, w := range windows {
		if len(w.recvs) == 0 {
			continue // no P2P round on this rank
		}
		tasks = append(tasks, pending{row: w.lastPost, recvs: w.recvs, Task: Task{
			Rank: int(rank), Kind: Wait, Label: "ghost wait", Start: w.start, End: w.end}})
	}
	// Completion order, like a live tracer appending each task as it
	// finishes; a rank's own tasks keep program order (a Wait sorts right
	// after the post whose row it borrowed).
	sort.Slice(tasks, func(a, b int) bool {
		ta, tb := &tasks[a], &tasks[b]
		switch {
		case ta.End != tb.End:
			return ta.End < tb.End
		case ta.Rank != tb.Rank:
			return ta.Rank < tb.Rank
		case ta.row != tb.row:
			return ta.row < tb.row
		}
		return ta.Kind != Wait && tb.Kind == Wait
	})

	tr := &Trace{tasks: make([]Task, len(tasks))}
	posted := map[message][]int{} // message → IDs of its Post tasks not yet received, FIFO
	for id := range tasks {
		p := &tasks[id]
		p.ID = id
		if p.Kind == Post {
			posted[p.sends] = append(posted[p.sends], id)
		}
		for _, m := range p.recvs {
			q := posted[m]
			if len(q) == 0 {
				return nil, fmt.Errorf("critpath: rank %d step %d: no isend from rank %d with tag %d is posted in the window before its receive completes",
					p.Rank, step, m.src, m.tag)
			}
			p.Deps = append(p.Deps, q[0])
			posted[m] = q[1:]
		}
		tr.tasks[id] = p.Task
	}
	return tr, nil
}
