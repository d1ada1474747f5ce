package driver

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"amrtools/internal/check"
	"amrtools/internal/critpath"
	"amrtools/internal/metrics"
	"amrtools/internal/physics"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/telemetry"
	"amrtools/internal/trace"
	"amrtools/internal/xrand"
)

// netSeeds is the committed corpus of the randomized driver net: each seed
// draws one configuration (netDraw). A draw that ever fails joins the list,
// shrunk to the smallest configuration that still fails.
var netSeeds = []uint64{
	1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
	144, 233, 377, 610, 987, 1597, 2584, 4181, 6765, 10946,
	0xa11ce, 0xb0b, 0xc0ffee, 0xdead, 0xfeed, 0xf00d, 0x5eed, 0x1dea, 0xbead, 0xcafe,
	20250101, 20250322, 20250613, 20250904, 20251125, 20260216, 20260509, 20260730, 20260928, 20261001,
}

// netDraw is one configuration of the net, a pure function of its seed.
type netDraw struct {
	Seed           uint64
	Dims           [3]int // one root block per rank
	RanksPerNode   int
	MaxLevel       int
	Steps          int
	ShellWidth     float64 // Sedov refinement band: thin, so the mesh refines in part and keeps changing
	Policy         string  // the policy, and the policy its runs must equal whole ("" if none)
	Twin           string
	policy, twin   placement.Policy
	Untuned        bool
	ThrottledNode  int // -1: none
	ThrottleFactor float64
	SendsFirst     bool
	LBInterval     int
	PlacementEvery int
	// Runs A and C use ShardsA (C observed); run B uses ShardsB under
	// another GOMAXPROCS and its own drawn observers.
	ShardsA, ShardsB int
	ProcsA, ProcsB   int
	WaitsB, MetricsB bool
	TracedStep       int
}

func (d netDraw) ranks() int { return d.Dims[0] * d.Dims[1] * d.Dims[2] }

func drawNet(seed uint64) netDraw {
	rng := xrand.New(seed)
	pick := func(n int) int { return rng.Intn(n) }
	d := netDraw{Seed: seed}
	// Small clusters dominate and the larger the cluster the shorter the run,
	// so the whole net fits its race-detector budget (30 s on two cores).
	d.Dims = [][3]int{{2, 2, 4}, {2, 2, 4}, {2, 2, 4}, {2, 2, 4}, {2, 2, 4}, {2, 3, 4}, {2, 3, 4}, {2, 3, 4},
		{2, 4, 4}, {2, 4, 4}, {2, 4, 4}, {2, 4, 4}, {3, 4, 4}, {3, 4, 4}, {4, 4, 4}, {4, 4, 8}}[pick(16)]
	ranks := d.ranks()
	for _, rpn := range []int{16, 8, 4}[pick(3):] {
		if d.RanksPerNode = rpn; ranks%rpn == 0 {
			break
		}
	}
	d.MaxLevel = 1 + pick(2)
	d.Steps = 3 + pick(1+64/ranks) // 3..7 on 16 ranks, 3..4 on 64, 3 on 128
	d.ShellWidth = 0.3 + 0.4*rng.Float64()
	chunk := 4 << pick(3) // 4, 8, 16 ranks per chunk: always below the rank count
	policies := []struct{ pol, twin placement.Policy }{
		{placement.Baseline{}, nil},
		{placement.CDP{Restricted: true}, placement.CPLX{X: 0}},
		{placement.LPT{}, placement.CPLX{X: 100}},
		{placement.CPLX{X: 0}, placement.CDP{Restricted: true}},
		{placement.CPLX{X: 25}, nil},
		{placement.CPLX{X: 50}, nil},
		{placement.CPLX{X: 75}, nil},
		{placement.CPLX{X: 100}, placement.LPT{}},
		{placement.CPLX{X: 0, ChunkSize: chunk}, placement.CDP{Restricted: true, ChunkSize: chunk}},
		{placement.CPLX{X: 50, ChunkSize: chunk}, nil},
	}
	p := policies[pick(len(policies))]
	d.policy, d.twin, d.Policy = p.pol, p.twin, p.pol.Name()
	if p.twin != nil {
		d.Twin = p.twin.Name()
	}
	d.Untuned = pick(2) == 0
	d.ThrottledNode = -1
	if pick(3) == 0 {
		d.ThrottledNode = pick(ranks / d.RanksPerNode)
		d.ThrottleFactor = 2 + 2*rng.Float64()
	}
	d.SendsFirst = pick(2) == 0
	d.LBInterval = 1 + pick(min(d.Steps-1, 5)) // at least one redistribution window
	d.PlacementEvery = pick(4)
	d.ShardsA = 1 + pick(3)
	d.ShardsB = 1 + (d.ShardsA+pick(2))%3 // one of the other two
	d.ProcsA = []int{1, 4}[pick(2)]
	d.ProcsB = 5 - d.ProcsA
	d.WaitsB, d.MetricsB = pick(2) == 0, pick(2) == 0
	d.TracedStep = pick(d.Steps)
	return d
}

// config builds a fresh Config for the draw (the Problem is stateful, so no
// two runs may share one).
func (d netDraw) config(pol placement.Policy, shards int) Config {
	ranks := d.ranks()
	cfg := DefaultConfig(d.Dims, d.MaxLevel, d.Steps, pol, d.Seed)
	sedov := physics.NewSedov(d.Dims, d.Steps, d.Seed)
	sedov.ShellWidth = d.ShellWidth
	cfg.Problem = sedov
	cfg.Net = simnet.Tuned(ranks/d.RanksPerNode, d.RanksPerNode, d.Seed)
	if d.Untuned {
		cfg.Net = simnet.Untuned(ranks/d.RanksPerNode, d.RanksPerNode, d.Seed)
	}
	if d.ThrottledNode >= 0 {
		cfg.Net.ThrottledNodes = map[int]float64{d.ThrottledNode: d.ThrottleFactor}
	}
	cfg.SendsFirst = d.SendsFirst
	cfg.LBInterval = d.LBInterval
	cfg.PlacementEvery = d.PlacementEvery
	cfg.Shards = shards
	return cfg
}

// runDiff names the first field in which two runs of one simulated program
// differ ("" when none does). PlacementWall is host wall clock and Spans,
// Waits and Metrics exist only when asked for, so they are compared only
// where both runs have them.
func runDiff(a, b *Result) string {
	switch {
	case !telemetry.Equal(a.Steps, b.Steps):
		return "Steps"
	case a.Waits != nil && b.Waits != nil && !telemetry.Equal(a.Waits, b.Waits):
		return "Waits"
	case a.Census != b.Census:
		return fmt.Sprintf("Census %+v vs %+v", a.Census, b.Census)
	case a.Makespan != b.Makespan:
		return fmt.Sprintf("Makespan %v vs %v", a.Makespan, b.Makespan)
	case a.Events != b.Events:
		return fmt.Sprintf("Events %d vs %d", a.Events, b.Events)
	case a.Phases != b.Phases:
		return fmt.Sprintf("Phases %+v vs %+v", a.Phases, b.Phases)
	case a.Migrations != b.Migrations || a.Deltas != b.Deltas:
		return fmt.Sprintf("Migrations %d %+v vs %d %+v", a.Migrations, a.Deltas, b.Migrations, b.Deltas)
	case a.MaxRankMetaBytes != b.MaxRankMetaBytes || a.PartitionBytes != b.PartitionBytes:
		return "metadata footprint"
	}
	return meshDiff(a, b)
}

// meshDiff is runDiff restricted to the mesh trajectory — what the two
// engines must agree on although their timing differs.
func meshDiff(a, b *Result) string {
	if a.InitialBlocks != b.InitialBlocks || a.FinalBlocks != b.FinalBlocks || a.LBSteps != b.LBSteps ||
		!reflect.DeepEqual(a.BlockHistory, b.BlockHistory) {
		return fmt.Sprintf("mesh %d→%d, %d LB steps, history %v vs %d→%d, %d, %v",
			a.InitialBlocks, a.FinalBlocks, a.LBSteps, a.BlockHistory,
			b.InitialBlocks, b.FinalBlocks, b.LBSteps, b.BlockHistory)
	}
	return ""
}

// TestRandomizedDriverNet is the metamorphic net under the driver (ROADMAP
// 4b): per drawn configuration, relations that must hold between runs of
// the same simulated program, and conservation laws within one.
func TestRandomizedDriverNet(t *testing.T) {
	// The invariant audits are one more observer: on in run C only, so that
	// the net also covers unaudited runs (and fits its time budget).
	check.Force(false)
	t.Cleanup(func() { check.Force(true) })
	for _, seed := range netSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d := drawNet(seed)
			t.Logf("draw: %+v", d) // shown only when the draw fails
			run := func(name string, procs int, cfg Config) *Result {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("run %s: %v", name, err)
				}
				return res
			}
			a := run("A", d.ProcsA, d.config(d.policy, d.ShardsA))
			if a.Makespan <= 0 || a.Events <= 0 || a.Steps.NumRows() != d.Steps*d.ranks() {
				t.Fatalf("degenerate run A: makespan %v, %d events, %d step rows", a.Makespan, a.Events, a.Steps.NumRows())
			}

			// Every Shards >= 1 under any GOMAXPROCS is the same run, whatever
			// else is being collected.
			cfgB := d.config(d.policy, d.ShardsB)
			cfgB.CollectWaits = d.WaitsB
			if d.MetricsB {
				cfgB.Metrics = &metrics.Config{}
			}
			if diff := runDiff(a, run("B", d.ProcsB, cfgB)); diff != "" {
				t.Errorf("Shards=%d/GOMAXPROCS=%d vs Shards=%d/GOMAXPROCS=%d (waits %v, metrics %v): %s",
					d.ShardsA, d.ProcsA, d.ShardsB, d.ProcsB, d.WaitsB, d.MetricsB, diff)
			}

			// Observing changes nothing: run A again with every observer on,
			// the invariant audits included.
			cfgC := d.config(d.policy, d.ShardsA)
			cfgC.Trace, cfgC.Metrics, cfgC.CollectWaits, cfgC.Paranoid = &trace.Config{}, &metrics.Config{}, true, true
			c := run("C", d.ProcsA, cfgC)
			if diff := runDiff(a, c); diff != "" {
				t.Errorf("trace+metrics+waits+audits on vs off: %s", diff)
			}
			checkConservation(t, d, c)

			// The sequential engine times the run differently but walks the
			// same mesh.
			if diff := meshDiff(a, run("D", d.ProcsB, d.config(d.policy, 0))); diff != "" {
				t.Errorf("Shards=0 vs Shards=%d: %s", d.ShardsA, diff)
			}

			// CPL0 = CDP and CPL100 = LPT, as whole runs.
			if d.twin != nil {
				if diff := runDiff(a, run("E", d.ProcsA, d.config(d.twin, d.ShardsA))); diff != "" {
					t.Errorf("%s vs %s: %s", d.Policy, d.Twin, diff)
				}
			}
		})
	}
}

// checkConservation holds one fully observed run to the laws any run obeys:
// what was sent was received and is what the fabric counted, every instant
// of a rank's life is in exactly one phase, and no step's critical path ends
// after the run does.
func checkConservation(t *testing.T, d netDraw, res *Result) {
	t.Helper()
	var sent, recvd, bytes int64
	steps := res.Steps
	for row := 0; row < steps.NumRows(); row++ {
		sent += steps.Ints("msgs_sent")[row]
		recvd += steps.Ints("msgs_recvd")[row]
		bytes += steps.Ints("bytes_sent")[row]
	}
	cs := res.Census
	if sent != recvd || sent != cs.LocalMsgs+cs.RemoteMsgs || bytes != cs.LocalBytes+cs.RemoteBytes {
		t.Errorf("conservation: %d msgs / %d bytes sent, %d received, census %+v", sent, bytes, recvd, cs)
	}
	if mx := res.Metrics.MPI; mx.P2PMsgs.Total() != sent || mx.P2PRecvd.Total() != recvd || mx.P2PBytes.Total() != bytes {
		t.Errorf("conservation: metric lanes %d/%d/%d disagree with the step table %d/%d/%d",
			mx.P2PMsgs.Total(), mx.P2PRecvd.Total(), mx.P2PBytes.Total(), sent, recvd, bytes)
	}

	// Every rank leaves the final barrier at the makespan, having spent all
	// of its time computing, waiting, synchronizing or rebalancing.
	busy := make([]float64, d.ranks())
	for row := 0; row < steps.NumRows(); row++ {
		busy[steps.Ints("rank")[row]] += steps.Floats("compute")[row] + steps.Floats("comm")[row] +
			steps.Floats("sync")[row] + steps.Floats("rebalance")[row]
	}
	for rank, sum := range busy {
		if math.Abs(sum-res.Makespan) > 1e-9*res.Makespan {
			t.Errorf("rank %d: phases sum to %.12g, the run ends at %.12g", rank, sum, res.Makespan)
			break
		}
	}

	window, err := critpath.FromSpans(res.Spans.Table(), d.TracedStep)
	if err != nil {
		t.Errorf("step %d window: %v", d.TracedStep, err)
		return
	}
	if path := window.Analyze(); path.Makespan <= 0 || path.Makespan > res.Makespan {
		t.Errorf("step %d critical path ends at %v, the run at %v", d.TracedStep, path.Makespan, res.Makespan)
	}
}
