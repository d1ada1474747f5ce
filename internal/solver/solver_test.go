package solver

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"amrtools/internal/cost"
	"amrtools/internal/placement"
	"amrtools/internal/xrand"
)

// noLimit lets small test instances search to proven optimality.
const noLimit = 0

func TestSolveTrivial(t *testing.T) {
	r := Solve(nil, 4, noLimit, nil)
	if !r.Optimal || r.Makespan != 0 {
		t.Fatalf("empty solve = %+v", r)
	}
}

func TestSolveKnownInstance(t *testing.T) {
	// {7,6,5,4,3} on 2 ranks: optimum 13 ({7,6} | {5,4,3} → 13/12 → 13).
	costs := []float64{7, 6, 5, 4, 3}
	r := Solve(costs, 2, noLimit, nil)
	if !r.Optimal {
		t.Fatal("tiny instance not solved to optimality")
	}
	if math.Abs(r.Makespan-13) > 1e-9 {
		t.Fatalf("makespan = %v, want 13", r.Makespan)
	}
	if err := placement.Validate(r.Assignment, 5, 2); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 3 + rng.Intn(7)
		nr := 2 + rng.Intn(3)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 0.5 + rng.Float64()*9
		}
		res := Solve(costs, nr, noLimit, nil)
		if !res.Optimal {
			return false
		}
		want := bruteForce(costs, nr)
		return math.Abs(res.Makespan-want) < 1e-9
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func bruteForce(costs []float64, r int) float64 {
	n := len(costs)
	best := math.Inf(1)
	assign := make(placement.Assignment, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if ms := placement.Makespan(costs, assign, r); ms < best {
				best = ms
			}
			return
		}
		for k := range int32(r) {
			assign[i] = k
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// The paper's §V-B observation: LPT is so strong the solver rarely improves
// it. Verify the solver never does WORSE than LPT, and on identical-cost
// instances proves LPT optimal immediately.
func TestSolverNeverWorseThanLPT(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(10)
		nr := 3 + rng.Intn(4)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = rng.Pareto(0.6, 2.5)
		}
		lpt := placement.Makespan(costs, placement.LPT{}.Assign(costs, nr), nr)
		res := Solve(costs, nr, 200_000, nil)
		if res.Makespan > lpt+1e-9 {
			t.Fatalf("solver %v worse than LPT %v", res.Makespan, lpt)
		}
	}
}

// Graham's bound, checked against the true optimum rather than a lower
// bound: on small draws (≤ 12 blocks, ≤ 4 ranks) from the three scalebench
// cost distributions the search always completes, and LPT's makespan must be
// within 4/3 − 1/(3m) of what it proves optimal. (The case sits here and not
// in placement's randomized tests because this package imports placement.)
func TestLPTWithinGrahamBoundOfOptimum(t *testing.T) {
	rng := xrand.New(17)
	for _, d := range cost.ScalebenchDistributions() {
		for trial := 0; trial < 40; trial++ {
			costs := cost.Sample(d, 1+rng.Intn(12), rng)
			m := 1 + rng.Intn(4)
			res := Solve(costs, m, noLimit, nil)
			if !res.Optimal {
				t.Fatalf("%s %v on %d ranks: unbounded search did not prove optimality", d.Name(), costs, m)
			}
			lpt := placement.Makespan(costs, placement.LPT{}.Assign(costs, m), m)
			if bound := (4.0/3 - 1/(3*float64(m))) * res.Makespan; lpt > bound+1e-9 {
				t.Fatalf("%s %v on %d ranks: LPT makespan %v exceeds %v (optimum %v)",
					d.Name(), costs, m, lpt, bound, res.Makespan)
			}
		}
	}
}

func TestSolverUniformProvedOptimalFast(t *testing.T) {
	costs := make([]float64, 32)
	for i := range costs {
		costs[i] = 1
	}
	res := Solve(costs, 8, noLimit, nil)
	if !res.Optimal || res.Makespan != 4 {
		t.Fatalf("uniform solve = %+v, want optimal makespan 4", res)
	}
}

// The regression behind the node-budget change: the old wall-clock deadline
// made truncated searches machine-speed-dependent — two runs of the same
// binary on the same input could explore different node counts and return
// different incumbents, so lptilp tables depended on the host. With an
// explored-node budget the search is a pure function of its arguments:
// identical node counts, identical placements, identical makespans, run
// after run. (This test fails against the time.Duration-budget solver: a
// 40-block instance is far too large to finish inside any deadline, and the
// nodes-explored count under a deadline jitters with machine load.)
func TestSolveDeterministicUnderBudget(t *testing.T) {
	rng := xrand.New(11)
	costs := make([]float64, 40)
	for i := range costs {
		costs[i] = 0.5 + rng.Float64()*9
	}
	const budget = 300_000
	a := Solve(costs, 7, budget, nil)
	b := Solve(costs, 7, budget, nil)
	if a.Optimal {
		t.Fatal("instance solved to optimality; budget too large for a truncation test")
	}
	if a.Nodes != b.Nodes {
		t.Fatalf("node counts differ across identical runs: %d vs %d", a.Nodes, b.Nodes)
	}
	if a.Nodes != budget {
		t.Fatalf("truncated search explored %d nodes, want exactly the %d budget", a.Nodes, budget)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ across identical runs: %v vs %v", a.Makespan, b.Makespan)
	}
	if !reflect.DeepEqual(a.Assignment, b.Assignment) {
		t.Fatal("assignments differ across identical runs")
	}
}

func TestSolverRespectsBudget(t *testing.T) {
	rng := xrand.New(7)
	costs := make([]float64, 40)
	for i := range costs {
		costs[i] = 0.5 + rng.Float64()*9
	}
	res := Solve(costs, 7, 50_000, nil)
	if res.Nodes > 50_000 {
		t.Fatalf("solver explored %d nodes past a 50k-node budget", res.Nodes)
	}
	if res.Optimal {
		t.Fatal("truncated search claimed optimality")
	}
}

// TestSolveStopPoll: a stop that never fires leaves the truncated search
// exactly as it was, and one that fires ends it at the next poll.
func TestSolveStopPoll(t *testing.T) {
	rng := xrand.New(11)
	costs := make([]float64, 40)
	for i := range costs {
		costs[i] = 0.5 + rng.Float64()*9
	}
	const budget = 300_000
	polls := 0
	want := Solve(costs, 7, budget, nil)
	got := Solve(costs, 7, budget, func() bool { polls++; return false })
	if got.Nodes != want.Nodes || got.Makespan != want.Makespan || !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Fatalf("a stop that never fires changed the search: %d nodes, makespan %v; want %d, %v",
			got.Nodes, got.Makespan, want.Nodes, want.Makespan)
	}
	if polls != budget/stopEvery {
		t.Fatalf("stop polled %d times in %d nodes, want every %d", polls, budget, stopEvery)
	}
	stopped := Solve(costs, 7, budget, func() bool { return true })
	if stopped.Nodes != stopEvery || stopped.Optimal {
		t.Fatalf("stopped search explored %d nodes (optimal %v), want %d and not optimal",
			stopped.Nodes, stopped.Optimal, stopEvery)
	}
}

// TestSolvePanicsOnBadRanks: a non-positive rank count, and one an int32
// rank id cannot hold, panic before anything sized by nranks is allocated
// (the costs are empty, so nothing else is).
func TestSolvePanicsOnBadRanks(t *testing.T) {
	for _, tc := range []struct {
		nranks int
		want   string
	}{{0, "nranks <= 0"}, {math.MaxInt32 + 1, "nranks 2147483648 > math.MaxInt32"}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("nranks=%d: panic %q, want one naming %q", tc.nranks, msg, tc.want)
				}
			}()
			Solve(nil, tc.nranks, noLimit, nil)
		}()
	}
}
