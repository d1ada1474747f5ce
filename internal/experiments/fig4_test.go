package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/critpath"
	"amrtools/internal/driver"
	"amrtools/internal/placement"
	"amrtools/internal/trace"
	"amrtools/internal/xrand"
)

// fig4Row is one sedov-window row of the Fig 4 table.
type fig4Row struct {
	ranks, edges int64
	makespanMs   float64
	waitMs       float64
}

// fig4Golden holds the sedov-window rows by seed, as the driver's in-line
// task tracer produced them before the window was rebuilt from
// flight-recorder spans.
var fig4Golden = map[uint64]map[string]fig4Row{
	42: {
		"sedov-window-compute-first": {2, 1, 206.85734340694924, 26.8677170551683},
		"sedov-window-sends-first":   {1, 0, 211.08035940694228, 1.4859919999864468},
	},
	9001: {
		"sedov-window-compute-first": {2, 1, 195.60158257009476, 37.84820646316986},
		"sedov-window-sends-first":   {1, 0, 199.71187057008643, 1.5301759999862552},
	},
}

// TestFig4SedovWindowGolden pins the two simulated-window rows of Fig 4:
// critpath.FromSpans must reproduce the former tracer's critical path to the
// last bit.
func TestFig4SedovWindowGolden(t *testing.T) {
	for _, quick := range []bool{true, false} {
		for seed, want := range fig4Golden {
			tab := Fig4(Options{Quick: quick, Seed: seed})
			seen := 0
			for r := 0; r < tab.NumRows(); r++ {
				w, ok := want[tab.Strings("window")[r]]
				if !ok {
					continue
				}
				seen++
				got := fig4Row{tab.Ints("ranks_on_path")[r], tab.Ints("cross_rank_edges")[r],
					tab.Floats("makespan_ms")[r], tab.Floats("wait_on_path_ms")[r]}
				if got != w {
					t.Errorf("quick=%v seed=%d %s: got %+v, want %+v",
						quick, seed, tab.Strings("window")[r], got, w)
				}
			}
			if seen != len(want) {
				t.Errorf("quick=%v seed=%d: %d sedov-window rows, want %d", quick, seed, seen, len(want))
			}
		}
	}
}

// TestFromSpansOnSpanColfile: the window rebuilt from the span colfile that
// `experiments -trace dir` writes is the window rebuilt from the live
// recorder.
func TestFromSpansOnSpanColfile(t *testing.T) {
	dir := t.TempDir()
	Fig4(Options{Quick: true, Seed: 42, TraceDir: dir})
	for name, want := range fig4Golden[42] {
		data, err := os.ReadFile(filepath.Join(dir, "fig4-sedov--"+name+".col"))
		if err != nil {
			t.Fatal(err)
		}
		r, err := colfile.OpenBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		spans, err := r.Table()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := critpath.FromSpans(spans, fig4Step)
		if err != nil {
			t.Fatal(err)
		}
		res := tr.Analyze()
		got := fig4Row{int64(len(res.Ranks)), int64(res.CrossRankEdges), res.Makespan * 1e3, res.WaitOnPath * 1e3}
		if got != want {
			t.Errorf("%s from its colfile: got %+v, want %+v", name, got, want)
		}
	}
}

// fig4Window runs the Fig 4 compute-first configuration under the flight
// recorder and returns the run.
func fig4Window(t *testing.T, tc trace.Config) *driver.Result {
	t.Helper()
	cfg := sedovConfig(QuickScale, placement.Baseline{}, 8, 42)
	cfg.SendsFirst = false
	cfg.CollectSteps = false
	cfg.Trace = &tc
	res, err := driver.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// taskList flattens a trace for comparison.
func taskList(tr *critpath.Trace) []critpath.Task {
	out := make([]critpath.Task, tr.Len())
	for i := range out {
		out[i] = tr.Task(i)
	}
	return out
}

// TestFromSpansIdenticalAcrossGOMAXPROCS: the rebuilt window — every task,
// every edge, and the analysed path — is the same for any GOMAXPROCS, so the
// host's core count cannot move a Fig 4 row.
func TestFromSpansIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var baseTasks []critpath.Task
	var baseRes critpath.Result
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		tr, err := critpath.FromSpans(fig4Window(t, trace.Config{}).Spans.Table(), fig4Step)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		tasks, res := taskList(tr), tr.Analyze()
		if baseTasks == nil {
			if len(tasks) == 0 || res.Makespan <= 0 {
				t.Fatalf("degenerate window: %d tasks, makespan %v", len(tasks), res.Makespan)
			}
			baseTasks, baseRes = tasks, res
			continue
		}
		if !reflect.DeepEqual(tasks, baseTasks) {
			t.Errorf("GOMAXPROCS=%d: task list differs from the first run", procs)
		}
		if !reflect.DeepEqual(res, baseRes) {
			t.Errorf("GOMAXPROCS=%d: critical path %+v, want %+v", procs, res, baseRes)
		}
	}
}

// TestFromSpansRefusesTruncatedWindow: a ring too small for the run has
// evicted (part of) the requested step; the analysis must say so, naming the
// rank and the step, rather than report the critical path of half a window.
func TestFromSpansRefusesTruncatedWindow(t *testing.T) {
	res := fig4Window(t, trace.Config{PerRankCap: 64})
	if res.Spans.Dropped() == 0 {
		t.Fatal("a 64-span ring held the whole run; cap not exercised")
	}
	spans := res.Spans.Table()
	// Step 7 is partly retained on every rank, step 6 is gone entirely.
	for _, step := range []int{7, fig4Step} {
		_, err := critpath.FromSpans(spans, step)
		if err == nil {
			t.Fatalf("step %d: truncated window analysed without error", step)
		}
		if !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "step 7") {
			t.Fatalf("step %d: error does not name the rank and the retained step: %v", step, err)
		}
	}
}

// TestFromSpansRoundTrip renders randomSingleRoundWindow traces as the span
// rows a recorder would have produced for them and rebuilds the window: the
// critical path must survive the round trip. A send that several ranks wait
// on becomes one isend per receiver (a span has one destination), so the
// paths are compared without their Post tasks.
func TestFromSpansRoundTrip(t *testing.T) {
	type hop struct {
		rank       int
		kind       critpath.Kind
		start, end float64
	}
	hops := func(tr *critpath.Trace, res critpath.Result) []hop {
		var out []hop
		for _, id := range res.Path {
			if task := tr.Task(id); task.Kind != critpath.Post {
				out = append(out, hop{task.Rank, task.Kind, task.Start, task.End})
			}
		}
		return out
	}
	rng := xrand.New(20260928)
	for draw := 0; draw < 60; draw++ {
		nranks := 2 + rng.Intn(63)
		want := randomSingleRoundWindow(nranks, rng)

		// Per rank, in ID (= program) order: compute, send, wait, tail.
		byRank := make([][]critpath.Task, nranks)
		for _, task := range taskList(want) {
			byRank[task.Rank] = append(byRank[task.Rank], task)
		}
		receivers := make([][]int, nranks) // sender → ranks waiting on its send
		for r, tasks := range byRank {
			sender := want.Task(tasks[2].Deps[0]).Rank
			receivers[sender] = append(receivers[sender], r)
		}
		rec := trace.NewRecorder(nranks, 1, trace.Config{})
		for r, tasks := range byRank {
			rank := int32(r)
			rec.SetPhase(r, 0, 0)
			compute, send, wait, tail := tasks[0], tasks[1], tasks[2], tasks[3]
			rec.Emit(trace.Span{Rank: rank, Kind: trace.Irecv, T0: 0, T1: 0, Peer: int32(want.Task(wait.Deps[0]).Rank), Tag: 0})
			rec.Emit(trace.Span{Rank: rank, Kind: trace.Compute, T0: compute.Start, T1: compute.End, Peer: -1, Tag: -1})
			for _, dst := range receivers[r] {
				rec.Emit(trace.Span{Rank: rank, Kind: trace.Isend, T0: send.Start, T1: send.End, Peer: int32(dst), Tag: 0})
			}
			if len(receivers[r]) == 0 {
				// Nobody waits on this send; tag 1 keeps it unmatched.
				rec.Emit(trace.Span{Rank: rank, Kind: trace.Isend, T0: send.Start, T1: send.End, Peer: int32((r + 1) % nranks), Tag: 1})
			}
			if wait.End > wait.Start {
				// Like mpi.Wait: a span only when the rank actually blocked.
				rec.Emit(trace.Span{Rank: rank, Kind: trace.RecvWait, T0: wait.Start, T1: wait.End, Peer: int32(want.Task(wait.Deps[0]).Rank), Tag: 0})
			}
			rec.Emit(trace.Span{Rank: rank, Kind: trace.Compute, T0: tail.Start, T1: tail.End, Peer: -1, Tag: -1})
		}

		got, err := critpath.FromSpans(rec.Table(), 0)
		if err != nil {
			t.Fatalf("draw %d (%d ranks): %v", draw, nranks, err)
		}
		wantRes, gotRes := want.Analyze(), got.Analyze()
		if !reflect.DeepEqual(gotRes.Ranks, wantRes.Ranks) || gotRes.CrossRankEdges != wantRes.CrossRankEdges ||
			gotRes.Makespan != wantRes.Makespan || gotRes.WaitOnPath != wantRes.WaitOnPath {
			t.Fatalf("draw %d (%d ranks): rebuilt path %+v, want %+v", draw, nranks, gotRes, wantRes)
		}
		if g, w := hops(got, gotRes), hops(want, wantRes); !reflect.DeepEqual(g, w) {
			t.Fatalf("draw %d (%d ranks): rebuilt path visits %v, want %v", draw, nranks, g, w)
		}
	}
}
