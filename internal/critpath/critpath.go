// Package critpath implements the paper's critical-path model of execution
// (§IV-D): within a synchronization window, the chain of dependent tasks
// that determines when the straggler reaches the barrier.
//
// Tasks carry data dependencies (message edges, intra-block ordering); the
// analysis adds rank-serialization edges (a rank executes one task at a
// time) automatically. The binding predecessor of a task is whichever
// dependency finished last; following binding predecessors from the
// last-finishing task yields the critical path. MPI_Wait time on that path
// is the only flexible-duration component (compute kernels and Isend/Irecv
// postings are fixed, §IV-D), so it is the reduction target for both
// optimizations the paper derives: operation reordering (send early) and
// overlap (hide waits behind independent work).
//
// A window is either rebuilt from a simulated run's flight-recorder spans
// (FromSpans — the telemetry route the paper's analysis took) or assembled
// task by task with Trace.Add.
package critpath

import (
	"fmt"
	"sort"
)

// Kind classifies a task for wait-time attribution.
type Kind uint8

const (
	// Compute is a fixed-duration kernel.
	Compute Kind = iota
	// Post is a fixed-cost Isend/Irecv buffer posting.
	Post
	// Wait is a flexible-duration MPI_Wait (or equivalent stall).
	Wait
	// Other is any other task (pack/unpack, flux correction, ...).
	Other
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Post:
		return "post"
	case Wait:
		return "wait"
	case Other:
		return "other"
	}
	return "unknown"
}

// Task is one executed task instance in a trace.
type Task struct {
	ID    int
	Rank  int
	Kind  Kind
	Label string
	Start float64
	End   float64
	// Deps are data dependencies (task IDs that must finish before this
	// task can start): message edges and intra-block ordering.
	Deps []int
}

// Trace is a collection of executed tasks within one synchronization window.
type Trace struct {
	tasks []Task
}

// Add appends a task and returns its ID. End must be >= Start and deps must
// reference earlier-added tasks.
func (tr *Trace) Add(rank int, kind Kind, label string, start, end float64, deps ...int) int {
	if end < start {
		panic(fmt.Sprintf("critpath: task %q ends before it starts", label))
	}
	id := len(tr.tasks)
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("critpath: task %q depends on unknown task %d", label, d))
		}
	}
	tr.tasks = append(tr.tasks, Task{
		ID: id, Rank: rank, Kind: kind, Label: label,
		Start: start, End: end, Deps: append([]int(nil), deps...),
	})
	return id
}

// Len returns the number of tasks.
func (tr *Trace) Len() int { return len(tr.tasks) }

// Task returns a copy of the task with the given ID.
func (tr *Trace) Task(id int) Task { return tr.tasks[id] }

// Result describes a critical path.
type Result struct {
	// Path is the task ID chain from first to last.
	Path []int
	// Ranks are the distinct ranks on the path, in order of appearance.
	Ranks []int
	// Makespan is the end time of the final task.
	Makespan float64
	// WaitOnPath is the total duration of Wait-kind tasks on the path —
	// the flexible component reordering and overlap can attack.
	WaitOnPath float64
	// CrossRankEdges is the number of path edges that switch ranks
	// (message dependencies followed).
	CrossRankEdges int
}

// Analyze computes the critical path of the trace: starting from the
// last-finishing task, repeatedly follow the binding predecessor — the
// latest-finishing dependency, where dependencies include both recorded data
// deps and the task that ran immediately before on the same rank.
func (tr *Trace) Analyze() Result {
	if len(tr.tasks) == 0 {
		return Result{}
	}
	// Rank-serialization predecessor: previous task on the same rank by
	// start time (ties by ID, which reflects insertion order).
	byRank := map[int][]int{}
	for _, t := range tr.tasks {
		byRank[t.Rank] = append(byRank[t.Rank], t.ID)
	}
	serialPred := make([]int, len(tr.tasks))
	for i := range serialPred {
		serialPred[i] = -1
	}
	for _, ids := range byRank {
		sort.Slice(ids, func(a, b int) bool {
			ta, tb := tr.tasks[ids[a]], tr.tasks[ids[b]]
			if ta.Start != tb.Start {
				return ta.Start < tb.Start
			}
			return ta.ID < tb.ID
		})
		for i := 1; i < len(ids); i++ {
			serialPred[ids[i]] = ids[i-1]
		}
	}

	// Find the last-finishing task (the straggler's arrival at the sync).
	last := 0
	for i, t := range tr.tasks {
		if t.End > tr.tasks[last].End || (t.End == tr.tasks[last].End && i < last) {
			last = i
		}
	}

	var res Result
	res.Makespan = tr.tasks[last].End
	cur := last
	for cur >= 0 {
		res.Path = append(res.Path, cur)
		t := tr.tasks[cur]
		if t.Kind == Wait {
			res.WaitOnPath += t.End - t.Start
		}
		// Binding predecessor: the dependency (data or serial) with the
		// latest end time; prefer the serial predecessor on ties so local
		// chains stay local.
		next := -1
		bestEnd := -1.0
		if sp := serialPred[cur]; sp >= 0 {
			next = sp
			bestEnd = tr.tasks[sp].End
		}
		for _, d := range t.Deps {
			if tr.tasks[d].End > bestEnd {
				next = d
				bestEnd = tr.tasks[d].End
			}
		}
		// Stop when the predecessor no longer binds: the task started
		// strictly after every predecessor finished and after time 0 idle.
		if next >= 0 && tr.tasks[next].End+1e-12 < t.Start && t.Start > 0 {
			// There was an idle gap — the chain is not actually delayed by
			// this predecessor; the path begins here only if the gap was
			// scheduler-chosen. We conservatively continue through the
			// serial predecessor if one exists (the rank was busy or chose
			// this order), otherwise stop.
			if serialPred[cur] < 0 {
				break
			}
			next = serialPred[cur]
		}
		cur = next
	}
	// Reverse into chronological order.
	for i, j := 0, len(res.Path)-1; i < j; i, j = i+1, j-1 {
		res.Path[i], res.Path[j] = res.Path[j], res.Path[i]
	}
	seen := map[int]bool{}
	prevRank := -1
	for _, id := range res.Path {
		r := tr.tasks[id].Rank
		if !seen[r] {
			seen[r] = true
			res.Ranks = append(res.Ranks, r)
		}
		if prevRank >= 0 && r != prevRank {
			res.CrossRankEdges++
		}
		prevRank = r
	}
	return res
}

// MaxRanksPerP2PRound is the paper's key structural principle (§IV-D):
// given a single round of concurrent P2P communication between two
// synchronization points, at most two ranks can be implicated in the
// critical path, regardless of scale.
const MaxRanksPerP2PRound = 2

// CheckTwoRankPrinciple verifies the principle on a trace known to contain
// at most one P2P round: the analyzed path must involve at most two distinct
// ranks and at most one cross-rank edge.
func CheckTwoRankPrinciple(tr *Trace) (Result, bool) {
	res := tr.Analyze()
	return res, len(res.Ranks) <= MaxRanksPerP2PRound && res.CrossRankEdges <= 1
}

// SendDelay measures, for every Post-kind task whose label marks it a send,
// the dispatch delay: time between the instant all its data dependencies
// were satisfied and its actual start. Large dispatch delays are what the
// paper's task-reordering optimization (prioritize sends, Fig 4 bottom)
// eliminates.
func (tr *Trace) SendDelay() map[int]float64 {
	out := map[int]float64{}
	for _, t := range tr.tasks {
		if t.Kind != Post {
			continue
		}
		ready := 0.0
		for _, d := range t.Deps {
			if e := tr.tasks[d].End; e > ready {
				ready = e
			}
		}
		out[t.ID] = t.Start - ready
	}
	return out
}
