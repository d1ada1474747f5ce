// Command scalebench evaluates placement-policy effectiveness and
// computational cost under synthetic compute imbalance (§VI-C): block costs
// drawn from exponential, Gaussian, and power-law distributions at 1.5
// blocks per rank, with rank counts from 512 to 128K.
//
// Usage:
//
//	scalebench [-full] [-seed 42] [-scale] [-paranoid] [-metrics f.col] [-serve :8080]
//
// Default mode sweeps up to 8K ranks; -full goes to 131072 (the paper's
// 128K point, where unzoned placement crosses the 50 ms budget and the
// zonal variant recovers it).
//
// -scale switches to the distributed-forest rank-scaling sweep instead:
// full DES driver runs at 512–8192 ranks (65536 with -full), one root
// block per rank, reporting the per-rank metadata economy of the
// distributed mesh — view + plan + directory-shard bytes per rank, the
// replicated partition size, and ownership-delta record counts. -paranoid
// runs those simulations with every invariant audit on. -metrics dumps the
// harness recorder (wall_ms, events, rank_bytes, heap_mb per run) as an
// amrquery-readable colfile in either mode. -serve starts the live
// observability endpoint (Prometheus /metrics, /statusz progress page,
// /debug/pprof) for the duration of the sweep — see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"amrtools/internal/check"
	"amrtools/internal/experiments"
	"amrtools/internal/harness"
	"amrtools/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning the exit status: 0, 1 for
// an I/O error (the -serve socket, the -metrics file), 2 for a bad flag.
// Tables go to stdout; progress and file notices go to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scalebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "sweep to 131072 ranks (takes longer; 65536 in -scale mode)")
	seed := fs.Uint64("seed", 42, "cost-sampling seed")
	workers := fs.Int("j", 0, "parallel runs per campaign (0 = GOMAXPROCS)")
	scale := fs.Bool("scale", false, "run the distributed-forest rank-scaling sweep (full driver runs)")
	paranoid := fs.Bool("paranoid", false, "run -scale simulations with the internal/check invariant audits on")
	shards := fs.Int("shards", 0, "node-sharded event queues for every simulation the binary runs; the burst windows of a timestep run one goroutine per queue when GOMAXPROCS > 1; results are identical for every value >= 1 (0 = the sequential engine, whose tables differ)")
	metricsOut := fs.String("metrics", "", "write per-run campaign telemetry to this colfile")
	serve := fs.String("serve", "", "serve live /metrics, /statusz, and /debug/pprof on this address (e.g. :8080) for the duration of the run")
	timeout := fs.Duration("timeout", 0, "per-run timeout (0 = none); a safety net against simulated deadlocks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "scalebench:", err)
		return 1
	}

	if *paranoid {
		check.Force(true)
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
		Quick:    !*full,
		Seed:     *seed,
		Paranoid: *paranoid,
		Shards:   *shards,
		Metrics:  camp,
		Exec: harness.Exec{
			Workers:  *workers,
			Timeout:  *timeout,
			Recorder: rec,
			Progress: func(p harness.Progress) {
				fmt.Fprintf(stderr, "  [%s] %d/%d done: %s (%s, %v)\n",
					p.Campaign, p.Done, p.Total, p.ID, p.Status, p.Wall.Round(time.Millisecond))
			},
		},
	}

	if *scale {
		fmt.Fprintln(stdout, "scalebench: distributed-forest rank scaling (per-rank metadata economy)")
		fmt.Fprint(stdout, experiments.Scale(opts).Render(0))
	} else {
		fmt.Fprintln(stdout, "scalebench: normalized makespan (makespan / lower bound, lower is better)")
		fmt.Fprint(stdout, experiments.Fig7b(opts).Render(0))
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "scalebench: placement computation overhead (50 ms budget)")
		fmt.Fprint(stdout, experiments.Fig7c(opts).Render(0))
	}

	if *metricsOut != "" {
		if err := rec.WriteFile(*metricsOut); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "campaign telemetry: %d rows -> %s\n", rec.Table().NumRows(), *metricsOut)
	}
	return 0
}
