package experiments

import (
	"fmt"

	"amrtools/internal/critpath"
	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
	"amrtools/internal/trace"
	"amrtools/internal/xrand"
)

// Fig4 reproduces the critical-path analysis of §IV-D: (a) within a single
// P2P communication round, the critical path involves at most two ranks
// regardless of scale — verified over randomized synchronization windows at
// increasing rank counts; (b) prioritizing sends in the task schedule
// shortens the critical path by removing dispatch delay (Fig 4 bottom).
//
// Columns: window, ranks_on_path, cross_rank_edges, makespan_ms,
// wait_on_path_ms, principle_holds (1/0).
func Fig4(opts Options) *telemetry.Table {
	out := telemetry.NewTable(
		telemetry.StrCol("window"), telemetry.IntCol("ranks_on_path"),
		telemetry.IntCol("cross_rank_edges"), telemetry.FloatCol("makespan_ms"),
		telemetry.FloatCol("wait_on_path_ms"), telemetry.IntCol("principle_holds"),
	)

	// (a) Randomized single-round windows at growing scales. Window
	// generation shares one RNG stream, so it stays sequential; the path
	// analyses are independent and fan out.
	scales := []int{8, 64, 512}
	if opts.Quick {
		scales = []int{8, 64}
	}
	rng := xrand.New(opts.Seed + 4)
	type window struct {
		res   critpath.Result
		holds int
	}
	var windowSpecs []harness.Spec[window]
	for _, nranks := range scales {
		tr := randomSingleRoundWindow(nranks, rng)
		windowSpecs = append(windowSpecs, harness.Spec[window]{
			ID: fmt.Sprintf("random-%dranks", nranks),
			Run: func(m *harness.Meter) (window, error) {
				res, ok := critpath.CheckTwoRankPrinciple(tr)
				holds := 0
				if ok {
					holds = 1
				}
				return window{res: res, holds: holds}, nil
			},
		})
	}
	for i, w := range harness.MustValues(harness.Run(opts.Exec, "fig4-windows", windowSpecs)) {
		out.Append(fmt.Sprintf("random-%dranks", scales[i]),
			len(w.res.Ranks), w.res.CrossRankEdges,
			w.res.Makespan*1e3, w.res.WaitOnPath*1e3, w.holds)
	}

	// (b) A real simulated synchronization window: run Sedov under the flight
	// recorder and analyze one timestep's actual task schedule, rebuilt from
	// its spans (eight steps fit the default per-rank ring).
	names := []string{"sedov-window-compute-first", "sedov-window-sends-first"}
	var specs []harness.Spec[*driver.Result]
	for _, name := range names {
		cfg := sedovConfig(QuickScale, placement.Baseline{}, 8, opts.Seed)
		cfg.SendsFirst = name == "sedov-window-sends-first"
		cfg.Trace = &trace.Config{}
		cfg.CollectSteps = false
		specs = append(specs, opts.sedovSpec(name, cfg))
	}
	for i, res := range runCampaign(opts, "fig4-sedov", specs) {
		tr, err := critpath.FromSpans(res.Spans.Table(), fig4Step)
		if err != nil {
			panic(fmt.Sprintf("experiments: fig4 %s: %v", names[i], err))
		}
		cpRes, ok := critpath.CheckTwoRankPrinciple(tr)
		holds := 0
		if ok {
			holds = 1
		}
		out.Append(names[i], len(cpRes.Ranks), cpRes.CrossRankEdges,
			cpRes.Makespan*1e3, cpRes.WaitOnPath*1e3, holds)
	}

	// (c) The Fig 4 (bottom) two-block schedule, compute-first vs
	// sends-first.
	for _, sendsFirst := range []bool{false, true} {
		tr := fig4Schedule(sendsFirst)
		res := tr.Analyze()
		name := "schedule-compute-first"
		if sendsFirst {
			name = "schedule-sends-first"
		}
		holds := 0
		if len(res.Ranks) <= critpath.MaxRanksPerP2PRound {
			holds = 1
		}
		out.Append(name, len(res.Ranks), res.CrossRankEdges,
			res.Makespan*1e3, res.WaitOnPath*1e3, holds)
	}
	return out
}

// fig4Step is the timestep whose synchronization window Fig 4 analyzes:
// mid-run, after the first refinements created fine-coarse boundaries.
const fig4Step = 6

// randomSingleRoundWindow builds a synchronization window where every rank
// computes, posts one send, then waits on one message from a random peer —
// a single round of concurrent P2P communication.
func randomSingleRoundWindow(nranks int, rng *xrand.RNG) *critpath.Trace {
	tr := &critpath.Trace{}
	computeEnd := make([]float64, nranks)
	sendID := make([]int, nranks)
	for r := 0; r < nranks; r++ {
		d := (1 + 9*rng.Float64()) * 1e-3
		c := tr.Add(r, critpath.Compute, "compute", 0, d)
		computeEnd[r] = d
		sendID[r] = tr.Add(r, critpath.Post, "send", d, d+1e-5, c)
	}
	for r := 0; r < nranks; r++ {
		peer := (r + 1 + rng.Intn(nranks-1)) % nranks
		arrive := tr.Task(sendID[peer]).End + 3e-6
		start := computeEnd[r] + 1e-5
		end := arrive
		if end < start {
			end = start
		}
		w := tr.Add(r, critpath.Wait, "wait", start, end, sendID[peer])
		tr.Add(r, critpath.Compute, "tail", end, end+rng.Float64()*2e-3, w)
	}
	return tr
}

// fig4Schedule builds the paper's Fig 4 (bottom) example: rank 0 owns two
// blocks; block 0's boundary data feeds rank 1. With compute-first
// scheduling, Send_0 dispatches only after block 1's compute, stretching
// rank 1's wait; prioritizing Send_0 removes that dispatch delay without
// hurting anyone.
func fig4Schedule(sendsFirst bool) *critpath.Trace {
	tr := &critpath.Trace{}
	const ms = 1e-3
	c0 := tr.Add(0, critpath.Compute, "compute0", 0, 3*ms)
	var send0 int
	if sendsFirst {
		send0 = tr.Add(0, critpath.Post, "send0", 3*ms, 3.05*ms, c0)
		tr.Add(0, critpath.Compute, "compute1", 3.05*ms, 7.05*ms)
	} else {
		c1 := tr.Add(0, critpath.Compute, "compute1", 3*ms, 7*ms)
		send0 = tr.Add(0, critpath.Post, "send0", 7*ms, 7.05*ms, c0, c1)
	}
	cR := tr.Add(1, critpath.Compute, "compute@1", 0, 2*ms)
	arrive := tr.Task(send0).End + 0.01*ms
	w := tr.Add(1, critpath.Wait, "wait@1", 2*ms, arrive, cR, send0)
	tr.Add(1, critpath.Compute, "tail@1", arrive, arrive+2*ms, w)
	return tr
}
