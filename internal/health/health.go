// Package health implements the measurement-integrity workflow of §IV-A:
// overprovision nodes, probe them with a fixed kernel before (and after)
// every run, prune outliers, and blacklist repeat offenders.
//
// The paper's earliest finding was that no software conclusion was
// meaningful until fail-slow hardware was excluded: thermally throttled
// nodes inflated compute times 4× in clusters of 16 ranks (one node) and
// pushed >70% of runtime into global synchronization (Fig 2). The checker
// here detects exactly that signature — per-node kernel times far from the
// fleet median — without peeking at the fault injection's ground truth.
package health

import (
	"fmt"
	"sort"

	"amrtools/internal/mpi"
	"amrtools/internal/simnet"
	"amrtools/internal/stats"
)

// ProbeResult is one node's health-check measurement.
type ProbeResult struct {
	Node int
	// KernelTime is the measured duration of the fixed probe kernel on the
	// node's slowest rank.
	KernelTime float64
	// Ratio is KernelTime divided by the fleet median.
	Ratio float64
}

// ProbeNodes runs a fixed compute kernel on every rank of the cluster
// described by cfg and returns per-node worst-rank kernel times. The probe
// observes the same throttling a real job would, because it executes through
// the same simulated hardware.
func ProbeNodes(cfg simnet.Config) []ProbeResult {
	w := mpi.Launch(cfg, 0)
	defer w.Close()
	const kernel = 1e-3 // 1 ms nominal kernel
	times := make([]float64, w.NumRanks())
	for r := 0; r < w.NumRanks(); r++ {
		w.Spawn(r, func(c *mpi.Comm) {
			times[r] = c.Compute(kernel)
		})
	}
	if err := w.Run(); err != nil {
		// No interrupt is installed and a lone kernel cannot block.
		panic(err)
	}

	out := make([]ProbeResult, cfg.Nodes)
	for node := 0; node < cfg.Nodes; node++ {
		worst := 0.0
		for r := node * cfg.RanksPerNode; r < (node+1)*cfg.RanksPerNode; r++ {
			if times[r] > worst {
				worst = times[r]
			}
		}
		out[node] = ProbeResult{Node: node, KernelTime: worst}
	}
	ref := referenceKernel(out)
	for i := range out {
		if ref > 0 {
			out[i].Ratio = out[i].KernelTime / ref
		}
	}
	return out
}

// referenceKernel returns the lower-quartile kernel time: the healthy
// baseline. The lower quartile (rather than the median) stays robust even
// when up to three quarters of a small probe pool is fail-slow.
func referenceKernel(rs []ProbeResult) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.KernelTime
	}
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 25)
}

// Checker tracks blacklisted nodes across runs.
type Checker struct {
	// Threshold is the kernel-time ratio above which a node fails the
	// check (the paper's throttled nodes sat at ~4×; 1.5 catches subtler
	// fail-slow behaviour while tolerating jitter).
	Threshold float64
	blacklist map[int]bool
}

// NewChecker creates a checker with the given outlier threshold.
func NewChecker(threshold float64) *Checker {
	if threshold <= 1 {
		panic("health: threshold must exceed 1")
	}
	return &Checker{
		Threshold: threshold,
		blacklist: make(map[int]bool),
	}
}

// Evaluate scans probe results, records failures, and returns failing nodes.
func (c *Checker) Evaluate(probes []ProbeResult) []int {
	var failing []int
	for _, p := range probes {
		if p.Ratio > c.Threshold {
			failing = append(failing, p.Node)
			c.blacklist[p.Node] = true
		}
	}
	sort.Ints(failing)
	return failing
}

// Blacklisted returns all blacklisted nodes in order.
func (c *Checker) Blacklisted() []int {
	out := make([]int, 0, len(c.blacklist))
	for n := range c.blacklist {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// SelectHealthy implements the overprovisioned launch workflow: from a
// probed pool, pick `want` non-blacklisted, non-failing nodes. It returns an
// error when the pool cannot satisfy the request — the operational signal to
// requeue with more overprovisioning.
func (c *Checker) SelectHealthy(probes []ProbeResult, want int) ([]int, error) {
	c.Evaluate(probes)
	var healthy []int
	for _, p := range probes {
		if !c.blacklist[p.Node] {
			healthy = append(healthy, p.Node)
		}
	}
	sort.Ints(healthy)
	if len(healthy) < want {
		return nil, fmt.Errorf("health: only %d healthy nodes of %d requested", len(healthy), want)
	}
	return healthy[:want], nil
}

// PruneConfig returns a copy of cfg restricted to the given healthy nodes:
// the pruned cluster the job actually launches on. Node ids are renumbered
// densely; throttle entries for excluded nodes are dropped.
func PruneConfig(cfg simnet.Config, healthyNodes []int) simnet.Config {
	out := cfg
	out.Nodes = len(healthyNodes)
	out.ThrottledNodes = make(map[int]float64)
	for newID, old := range healthyNodes {
		if f, ok := cfg.ThrottledNodes[old]; ok {
			out.ThrottledNodes[newID] = f
		}
	}
	if len(out.ThrottledNodes) == 0 {
		out.ThrottledNodes = nil
	}
	return out
}
