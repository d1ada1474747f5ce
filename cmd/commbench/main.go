// Command commbench is the synthetic boundary-communication microbenchmark
// of §VI-C: it builds octree AMR meshes with realistic refinement, derives
// P2P patterns from geometric neighbor relationships, and measures
// end-to-end round latency as placement locality is varied through the CPLX
// X parameter. Placement policies are drop-in modules (-policies).
//
// Usage:
//
//	commbench [-ranks 512] [-policies cpl0,cpl25,cpl50,cpl75,cpl100]
//	          [-meshes 5] [-rounds 20] [-seed 42] [-j N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"amrtools/internal/experiments"
	"amrtools/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning the exit status: 0, 1 for
// a configuration the benchmark rejects (rank count, policy name, round
// count), 2 for a bad flag. The table goes to stdout, errors to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("commbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ranks := fs.Int("ranks", 512, "simulated rank count")
	policies := fs.String("policies", "cpl0,cpl25,cpl50,cpl75,cpl100",
		"comma-separated placement policies")
	meshes := fs.Int("meshes", 5, "random meshes per policy")
	rounds := fs.Int("rounds", 20, "communication rounds per mesh")
	seed := fs.Uint64("seed", 42, "mesh/network seed")
	workers := fs.Int("j", 0, "parallel runs (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	tab, err := experiments.Commbench(experiments.CommbenchConfig{
		Ranks:    *ranks,
		Policies: strings.Split(*policies, ","),
		Meshes:   *meshes,
		Rounds:   *rounds,
		Seed:     *seed,
		Exec:     harness.Exec{Workers: *workers},
	})
	if err != nil {
		fmt.Fprintln(stderr, "commbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "commbench: %d ranks, %d meshes x %d rounds per policy\n", *ranks, *meshes, *rounds)
	fmt.Fprint(stdout, tab.Render(0))
	return 0
}
