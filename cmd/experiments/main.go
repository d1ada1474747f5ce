// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	experiments [-quick] [-seed N] [-only fig6,table1,...] [-j N] [-out f.col] [-trace dir] [-serve :8080] [-metricsdir dir] [-timeout d] [-paranoid] [-cpuprofile f] [-memprofile f]
//
// Full mode reproduces the paper's scales (512–4096 simulated ranks for the
// Sedov runs, up to 131072 ranks for the §VI-C scalebench sweeps of
// -only fig7b,fig7c, 65536 for the -only scale distributed-forest sweep) and
// takes several minutes; -quick shrinks everything to seconds. Every experiment fans its
// independent runs out onto -j workers (default GOMAXPROCS); tables are
// bit-identical for any -j. Tables go to stdout; progress and timing go to
// stderr. -out dumps the per-run campaign telemetry (wall time, DES events,
// allocations) as a colfile readable by cmd/amrquery. -trace turns on the
// flight recorder (internal/trace) in every driver run and writes one span
// colfile per run into the given directory, plus the campaign telemetry as
// `campaign.col` so span streams can be joined with harness metrics (see
// EXPERIMENTS.md); read the spans with cmd/amrquery (-diagnose runs the
// span detectors, -perfetto exports a timeline). -paranoid turns on
// the runtime invariant audits of internal/check in every layer (MPI
// collective membership, simnet queue accounting, per-epoch mesh/plan
// consistency, teardown hygiene); a breached invariant aborts the run with
// a structured violation instead of producing a silently wrong table.
//
// -serve starts the live observability endpoint for the duration of the
// run: Prometheus text on /metrics, a self-refreshing campaign progress
// page on /statusz (runs done/total, current campaign, ETA), and the
// standard Go profiles under /debug/pprof. -metricsdir additionally dumps
// each run's full metric snapshot (internal/metrics, both planes) as one
// colfile per run, named like the -trace span dumps. See EXPERIMENTS.md
// for a worked example of watching a scale run live.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (combine with -only to isolate one figure; see EXPERIMENTS.md
// for a worked example). The heap profile is taken after a final GC, so it
// shows live retention, not transient garbage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"amrtools/internal/check"
	"amrtools/internal/experiments"
	"amrtools/internal/harness"
	"amrtools/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning the exit status: 0, 1 for
// an I/O error or a paper claim whose verdict disagrees with its ledger
// status, 2 for a usage error (bad flag, unknown experiment id). Tables, then
// the paper-claims ledger (experiments.Shapes), go to stdout; progress,
// timing and file notices go to stderr. The ledger's statuses were recorded
// at seed 42 (full) and seeds 1-10 and 42 (quick), so at another -seed a
// disagreement is a finding for the ledger, not a regression.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run shrunken configurations (seconds instead of minutes)")
	seed := fs.Uint64("seed", 42, "experiment seed")
	only := fs.String("only", "", "comma-separated experiment ids (default: all)")
	workers := fs.Int("j", 0, "parallel runs per campaign (0 = GOMAXPROCS)")
	out := fs.String("out", "", "write per-run campaign telemetry to this colfile")
	traceDir := fs.String("trace", "", "record per-run span traces into this directory (one colfile per run, plus campaign.col)")
	timeout := fs.Duration("timeout", 0, "per-run timeout (0 = none); a safety net against simulated deadlocks")
	paranoid := fs.Bool("paranoid", false, "run every simulation with the internal/check invariant audits on")
	serve := fs.String("serve", "", "serve live /metrics, /statusz, and /debug/pprof on this address (e.g. :8080) for the duration of the run")
	metricsDir := fs.String("metricsdir", "", "write each run's metric snapshot into this directory (one colfile per run)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
	memprofile := fs.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	// Resolve -only before anything starts: a typo must not cost a profile
	// file or a listening socket.
	selected, err := experiments.Select(*only)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, err)
			}
			fmt.Fprintf(stderr, "cpu profile -> %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, err)
			}
			fmt.Fprintf(stderr, "heap profile -> %s\n", *memprofile)
		}()
	}

	if *paranoid {
		// Force covers the worlds launched outside driver.Run too (the
		// commbench and neighborhood rounds, the health probes): every
		// world audits its own teardown when paranoid.
		check.Force(true)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fail(err)
		}
	}
	var camp *metrics.Campaign
	if *serve != "" {
		camp = metrics.NewCampaign()
		srv, err := metrics.Serve(*serve, camp)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "serving /metrics /statusz /debug/pprof on http://%s\n", srv.Addr())
	}
	rec := harness.NewRecorder()
	opts := experiments.Options{
		Quick:      *quick,
		Seed:       *seed,
		TraceDir:   *traceDir,
		MetricsDir: *metricsDir,
		Exec: harness.Exec{
			Workers:  *workers,
			Timeout:  *timeout,
			Recorder: rec,
			Metrics:  camp,
			Progress: func(p harness.Progress) {
				fmt.Fprintf(stderr, "  [%s] %d/%d done: %s (%s, %v)\n",
					p.Campaign, p.Done, p.Total, p.ID, p.Status, p.Wall.Round(time.Millisecond))
			},
		},
	}

	tables := map[string][]experiments.NamedTable{}
	for _, e := range selected {
		fmt.Fprintf(stdout, "=== %s [%s] ===\n", e.Title, e.ID)
		start := time.Now()
		tables[e.ID] = e.Run(opts)
		for _, nt := range tables[e.ID] {
			if nt.Name != "" {
				fmt.Fprintf(stdout, "--- %s ---\n", nt.Name)
			}
			fmt.Fprint(stdout, nt.Table.Render(0))
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "[%s] elapsed %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	ledger, disagree := experiments.Judge(experiments.Shapes, tables, *quick)
	if ledger.NumRows() > 0 {
		fmt.Fprintf(stdout, "=== paper claims ===\n%s\n", ledger.Render(0))
	}

	var dumps []string
	if *out != "" {
		dumps = append(dumps, *out)
	}
	if *traceDir != "" {
		// The span colfiles were written by the runners as they went; the
		// campaign table alongside them carries the harness metrics (wall
		// time, DES events, allocations) keyed by the same campaign/run ids,
		// so `amrquery` can join spans against run-level costs.
		dumps = append(dumps, filepath.Join(*traceDir, "campaign.col"))
	}
	for _, path := range dumps {
		if err := rec.WriteFile(path); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "campaign telemetry: %d rows -> %s\n", rec.Table().NumRows(), path)
	}
	if disagree > 0 {
		fmt.Fprintf(stderr, "experiments: %d paper claim(s) disagree with their ledger status, "+
			"recorded at seed 42 (full) and seeds 1-10 and 42 (quick); at another seed this is a finding for the ledger\n", disagree)
		return 1
	}
	return 0
}
