// Command sedov runs one Sedov Blast Wave simulation under a chosen
// placement policy and prints the phase decomposition, message census, and
// mesh statistics. Per-step per-rank telemetry can be written to a binary
// columnar file for analysis with amrquery.
//
// Usage:
//
//	sedov -ranks 512 -policy cpl50 -steps 60 [-out telemetry.col]
//
// Rank counts map to the paper's Table I mesh sizes (512→128³ cells with
// 16³ blocks, ..., 4096→256³).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"amrtools/internal/colfile"
	"amrtools/internal/driver"
	"amrtools/internal/experiments"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning the exit status: 0, 1 for
// a failed run or write, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sedov", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ranks := fs.Int("ranks", 512, "rank count: 512, 1024, 2048, or 4096 (Table I scales)")
	policy := fs.String("policy", "cpl50", "placement policy: baseline, lpt, cdp, cplX (X in 0..100)")
	steps := fs.Int("steps", 60, "timesteps to simulate")
	seed := fs.Uint64("seed", 42, "simulation seed")
	chunk := fs.Int("chunk", 0, "CDP chunk size in ranks (0 = unchunked; paper uses 512 at 4096 ranks)")
	out := fs.String("out", "", "write per-step telemetry to this columnar file")
	untuned := fs.Bool("untuned", false, "run on the pre-tuning stack (small shm queue, no drain queue, compute-first schedule)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var scale *experiments.SedovScale
	for i := range experiments.TableIScales {
		if experiments.TableIScales[i].Ranks == *ranks {
			scale = &experiments.TableIScales[i]
		}
	}
	if scale == nil {
		fmt.Fprintf(stderr, "sedov: unsupported rank count %d (want 512, 1024, 2048, or 4096)\n", *ranks)
		return 2
	}
	pol, err := placement.ByName(*policy, *chunk)
	if err != nil {
		fmt.Fprintln(stderr, "sedov:", err)
		return 2
	}

	cfg := driver.DefaultConfig(scale.RootDims, 2, *steps, pol, *seed)
	if *untuned {
		cfg.Net = simnet.Untuned(cfg.Net.Nodes, cfg.Net.RanksPerNode, *seed)
		cfg.SendsFirst = false
	}
	res, err := driver.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "sedov:", err)
		return 1
	}

	p := res.Phases
	fmt.Fprintf(stdout, "sedov blast wave 3d: %d ranks (%s cells, 16^3 blocks), %d steps, policy %s\n",
		*ranks, scale.MeshDesc, *steps, pol.Name())
	fmt.Fprintf(stdout, "  simulated runtime: %.3f s\n", res.Makespan)
	fmt.Fprintf(stdout, "  phases (mean/rank): compute %.3f s (%.0f%%), comm %.3f s (%.0f%%), sync %.3f s (%.0f%%), rebalance %.3f s (%.0f%%)\n",
		p.Compute, 100*p.Compute/p.Total(), p.Comm, 100*p.Comm/p.Total(),
		p.Sync, 100*p.Sync/p.Total(), p.Rebalance, 100*p.Rebalance/p.Total())
	fmt.Fprintf(stdout, "  blocks: %d -> %d (%d load-balancing invocations, %d migrations)\n",
		res.InitialBlocks, res.FinalBlocks, res.LBSteps, res.Migrations)
	cs := res.Census
	totalMsgs := cs.LocalMsgs + cs.RemoteMsgs
	fmt.Fprintf(stdout, "  messages: %d MPI (%d local, %d remote, %.0f%% remote), %d intra-rank memcpy\n",
		totalMsgs, cs.LocalMsgs, cs.RemoteMsgs,
		100*float64(cs.RemoteMsgs)/float64(totalMsgs), cs.IntraRank)
	if cs.AckStalls > 0 || cs.Drained > 0 {
		fmt.Fprintf(stdout, "  fabric: %d ACK stalls, %d drained, %d shm contentions\n",
			cs.AckStalls, cs.Drained, cs.ShmContentions)
	}
	if len(res.PlacementWall) > 0 {
		worst := res.PlacementWall[0]
		for _, d := range res.PlacementWall {
			if d > worst {
				worst = d
			}
		}
		fmt.Fprintf(stdout, "  placement compute (wall): worst %.2f ms over %d invocations (budget 50 ms)\n",
			float64(worst.Microseconds())/1e3, len(res.PlacementWall))
	}

	if *out != "" {
		if err := colfile.WriteFile(*out, res.Steps, telemetry.ChunkRows); err != nil {
			fmt.Fprintln(stderr, "sedov: writing telemetry:", err)
			return 1
		}
		fmt.Fprintf(stdout, "  telemetry: %d rows -> %s (query with amrquery)\n", res.Steps.NumRows(), *out)
	}
	return 0
}
