// Critical-path: run a simulated AMR code under the flight recorder, rebuild
// one timestep's synchronization window from its spans, extract the critical
// path (§IV-D of the paper), verify the two-rank principle, and export the
// window as Chrome trace-event JSON for visual inspection in chrome://tracing
// or https://ui.perfetto.dev.
//
// Run with: go run ./examples/critical-path
package main

import (
	"fmt"
	"log"
	"os"

	"amrtools/internal/critpath"
	"amrtools/internal/driver"
	"amrtools/internal/placement"
	"amrtools/internal/trace"
)

func main() {
	// A 64-rank Sedov run; analyze the schedule of timestep 6 (mid-run, after
	// the first refinements created fine-coarse boundaries).
	cfg := driver.DefaultConfig([3]int{4, 4, 4}, 2, 10, placement.Baseline{}, 11)
	cfg.Trace = &trace.Config{}
	res, err := driver.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := critpath.FromSpans(res.Spans.Table(), 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced %d tasks in the step-6 synchronization window\n", tr.Len())

	cp, ok := critpath.CheckTwoRankPrinciple(tr)
	first := tr.Task(cp.Path[0])
	fmt.Printf("critical path: %d tasks spanning %.3f ms, wait on path %.3f ms\n",
		len(cp.Path), (cp.Makespan-first.Start)*1e3, cp.WaitOnPath*1e3)
	fmt.Printf("ranks implicated: %v (cross-rank hops: %d)\n", cp.Ranks, cp.CrossRankEdges)
	if !ok {
		log.Fatal("two-rank principle violated — this should be impossible for a single P2P round")
	}
	fmt.Println("two-rank principle holds: at most two ranks on the path (§IV-D)")

	// The path is mostly zero-width posts on the straggler's rank; show
	// the tasks that actually consume time.
	fmt.Println("\ntime-consuming tasks on the path:")
	shown := 0
	for _, id := range cp.Path {
		task := tr.Task(id)
		if task.End-task.Start < 1e-5 {
			continue
		}
		fmt.Printf("  rank %-3d %-8v %-14s %8.3f – %8.3f ms\n",
			task.Rank, task.Kind, task.Label, task.Start*1e3, task.End*1e3)
		if shown++; shown >= 10 {
			break
		}
	}

	// Dispatch-delay audit: sends that sat in the queue after their data
	// was ready (what the sends-first optimization eliminates). Ties go to
	// the lowest task id, so map order cannot pick the send.
	worst, worstID := 0.0, -1
	for id, d := range tr.SendDelay() {
		if d > worst || d == worst && id < worstID {
			worst, worstID = d, id
		}
	}
	if worstID >= 0 {
		fmt.Printf("\nworst send dispatch delay: %.1f µs (%s)\n",
			worst*1e6, tr.Task(worstID).Label)
	}

	out := "critical_path_trace.json"
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteChromeTrace(f, &cp); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s — open it in chrome://tracing or ui.perfetto.dev;\n", out)
	fmt.Println("critical-path tasks carry the onCriticalPath arg.")
}
