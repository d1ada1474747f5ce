// Telemetry-pipeline: the paper's Lesson-4 workflow end to end — run a
// simulated AMR job, persist its per-step telemetry in the binary columnar
// format, and interrogate it with SQL-style queries (including a range
// scan the planner prunes from the embedded statistics).
//
// Run with: go run ./examples/telemetry-pipeline
package main

import (
	"bytes"
	"fmt"
	"log"

	"amrtools/internal/colfile"
	"amrtools/internal/driver"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
)

func main() {
	// 1. Collect: a 64-rank Sedov run with per-step, per-rank telemetry.
	cfg := driver.DefaultConfig([3]int{4, 4, 4}, 2, 20, placement.CPLX{X: 50}, 3)
	res, err := driver.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d telemetry rows from %d ranks x %d steps\n",
		res.Steps.NumRows(), 64, 20)

	// The §IV-C trigger as a query: the first step where some rank's
	// synchronization time exceeds twice its compute time (ties on step keep
	// row order, so this is the first such row the run appended).
	trig, err := tql.Run("SELECT step, rank FROM t WHERE sync > 2 * compute ORDER BY step LIMIT 1",
		map[string]*telemetry.Table{"t": res.Steps})
	if err != nil {
		log.Fatal(err)
	}
	if trig.NumRows() > 0 {
		fmt.Printf("trigger: sync > 2x compute first seen at step %d on rank %d\n",
			trig.Ints("step")[0], trig.Ints("rank")[0])
	}

	// 2. Persist: binary columnar format with per-chunk min/max statistics
	// (in-memory here; cmd/sedov writes the same bytes to disk).
	var buf bytes.Buffer
	if err := colfile.WriteTable(&buf, res.Steps, 256); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("columnar encoding: %d rows -> %d bytes (%.1f B/row)\n",
		res.Steps.NumRows(), buf.Len(), float64(buf.Len())/float64(res.Steps.NumRows()))

	// 3. Prune: a range predicate over `step` lets the planner skip the
	// chunks whose embedded statistics exclude it, without decoding them.
	r, err := colfile.OpenBytes(buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	rangeScan, err := tql.Parse("SELECT * FROM t WHERE step >= 10 AND step <= 19")
	if err != nil {
		log.Fatal(err)
	}
	table, ex, err := tql.ExecFileExplain(rangeScan, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range scan steps 10..19: %d rows, %d chunks pruned via statistics\n\n",
		table.NumRows(), ex.ChunksSkipped)

	// 4. Query: the diagnosis queries of §IV-C, in TQL.
	env := map[string]*telemetry.Table{"t": table}
	queries := []string{
		// Which ranks spend the most time blocked in synchronization?
		"SELECT rank, sum(sync) AS total_sync FROM t GROUP BY rank ORDER BY total_sync DESC LIMIT 5",
		// Phase profile per step: is sync growing as the mesh refines?
		"SELECT step, mean(compute) AS compute, mean(comm) AS comm, mean(sync) AS sync FROM t GROUP BY step ORDER BY step LIMIT 5",
		// Straggler hunt: the worst single (rank, step) compute cells.
		"SELECT step, rank, compute FROM t ORDER BY compute DESC LIMIT 3",
	}
	for _, q := range queries {
		fmt.Println(">", q)
		out, err := tql.Run(q, env)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out.Render(0))
		fmt.Println()
	}
}
