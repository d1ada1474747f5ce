package critpath

import (
	"reflect"
	"strings"
	"testing"

	"amrtools/internal/trace"
)

// twoRankSpans records the Fig 4 (top) window as a flight recorder would:
// rank 0 computes for 6 ms and then sends; rank 1 computes for 2 ms and
// stalls on that message. Step 0 is a warm-up so step 1's start is retained.
func twoRankSpans() *trace.Recorder {
	rec := trace.NewRecorder(2, 1, trace.Config{})
	for r := 0; r < 2; r++ {
		rec.SetPhase(r, 0, 0)
		rec.Emit(trace.Span{Rank: int32(r), Kind: trace.Barrier, T0: 0, T1: 1, Peer: -1, Tag: -1})
		rec.SetPhase(r, 1, 0)
	}
	rec.Emit(trace.Span{Rank: 0, Kind: trace.Irecv, T0: 1, T1: 1, Peer: 1, Tag: 8})
	rec.Emit(trace.Span{Rank: 0, Kind: trace.Compute, T0: 1, T1: 1.006, Peer: -1, Tag: -1})
	rec.Emit(trace.Span{Rank: 0, Kind: trace.Isend, T0: 1.006, T1: 1.006, Peer: 1, Tag: 7})
	// Rank 1's message arrived long ago, so rank 0 never blocks.
	rec.Emit(trace.Span{Rank: 0, Kind: trace.Barrier, T0: 1.006, T1: 1.0063, Peer: -1, Tag: -1})

	rec.Emit(trace.Span{Rank: 1, Kind: trace.Irecv, T0: 1, T1: 1, Peer: 0, Tag: 7})
	rec.Emit(trace.Span{Rank: 1, Kind: trace.Compute, T0: 1, T1: 1.002, Peer: -1, Tag: -1})
	rec.Emit(trace.Span{Rank: 1, Kind: trace.Isend, T0: 1.002, T1: 1.002, Peer: 0, Tag: 8})
	rec.Emit(trace.Span{Rank: 1, Kind: trace.RecvWait, T0: 1.002, T1: 1.0062, Peer: 0, Tag: 7})
	rec.Emit(trace.Span{Rank: 1, Kind: trace.Barrier, T0: 1.0062, T1: 1.0063, Peer: -1, Tag: -1})
	return rec
}

func TestFromSpansTwoRankWindow(t *testing.T) {
	tr, err := FromSpans(twoRankSpans().Table(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Completion order; rank 0's zero-width wait follows the post it shares
	// an instant with.
	want := []Task{
		{ID: 0, Rank: 1, Kind: Compute, Label: "compute #0", Start: 1, End: 1.002},
		{ID: 1, Rank: 1, Kind: Post, Label: "send t8", Start: 1.002, End: 1.002},
		{ID: 2, Rank: 0, Kind: Compute, Label: "compute #0", Start: 1, End: 1.006},
		{ID: 3, Rank: 0, Kind: Post, Label: "send t7", Start: 1.006, End: 1.006},
		{ID: 4, Rank: 0, Kind: Wait, Label: "ghost wait", Start: 1.006, End: 1.006, Deps: []int{1}},
		{ID: 5, Rank: 1, Kind: Wait, Label: "ghost wait", Start: 1.002, End: 1.0062, Deps: []int{3}},
	}
	got := make([]Task, tr.Len())
	for i := range got {
		got[i] = tr.Task(i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tasks:\n got %+v\nwant %+v", got, want)
	}
	res, ok := CheckTwoRankPrinciple(tr)
	if !ok || !reflect.DeepEqual(res.Ranks, []int{0, 1}) || res.CrossRankEdges != 1 {
		t.Fatalf("path = %+v", res)
	}
	if stall := got[5]; res.Makespan != 1.0062 || res.WaitOnPath != stall.End-stall.Start {
		t.Fatalf("makespan %v, wait on path %v", res.Makespan, res.WaitOnPath)
	}
}

func TestFromSpansRefusals(t *testing.T) {
	spans := twoRankSpans().Table()
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"missing column", func() error {
			_, err := FromSpans(spans.Select("rank", "kind", "t0", "t1", "peer", "step"), 1)
			return err
		}, `span table missing column "tag"`},
		{"step never run", func() error {
			_, err := FromSpans(spans, 2)
			return err
		}, "no spans for step 2"},
		{"start of the window evicted", func() error {
			// Rank 1 lost its step-0 spans, so nothing shows that its
			// step-1 spans are all of step 1.
			_, err := FromSpans(spans.Filter(func(row int) bool {
				return spans.Ints("rank")[row] != 1 || spans.Ints("step")[row] != 0
			}), 1)
			return err
		}, "rank 1's earliest retained span is in step 1"},
		{"send outside the window", func() error {
			_, err := FromSpans(spans.Filter(func(row int) bool {
				return spans.Strings("kind")[row] != "isend" || spans.Ints("rank")[row] != 1
			}), 1)
			return err
		}, "rank 0 step 1: no isend from rank 1 with tag 8 is posted"},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
