package health

import (
	"testing"

	"amrtools/internal/simnet"
)

func TestProbeDetectsThrottledNodes(t *testing.T) {
	cfg := simnet.Tuned(6, 16, 1)
	cfg.ThrottledNodes = map[int]float64{2: 4, 5: 4}
	probes := ProbeNodes(cfg)
	if len(probes) != 6 {
		t.Fatalf("probe count = %d", len(probes))
	}
	for _, p := range probes {
		throttled := p.Node == 2 || p.Node == 5
		if throttled && p.Ratio < 3 {
			t.Errorf("node %d ratio %.2f, want ~4", p.Node, p.Ratio)
		}
		if !throttled && p.Ratio > 1.5 {
			t.Errorf("healthy node %d ratio %.2f", p.Node, p.Ratio)
		}
	}
}

func TestCheckerEvaluateAndBlacklist(t *testing.T) {
	cfg := simnet.Tuned(4, 8, 2)
	cfg.ThrottledNodes = map[int]float64{1: 4}
	c := NewChecker(1.5)
	failing := c.Evaluate(ProbeNodes(cfg))
	if len(failing) != 1 || failing[0] != 1 {
		t.Fatalf("failing = %v, want [1]", failing)
	}
	if bl := c.Blacklisted(); len(bl) != 1 || bl[0] != 1 {
		t.Fatalf("blacklisted = %v", bl)
	}
}

func TestSelectHealthyOverprovisioning(t *testing.T) {
	// Overprovision 6 nodes to get 4 healthy ones despite 2 throttled.
	cfg := simnet.Tuned(6, 8, 3)
	cfg.ThrottledNodes = map[int]float64{0: 4, 3: 4}
	c := NewChecker(1.5)
	nodes, err := c.SelectHealthy(ProbeNodes(cfg), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("selected %d nodes", len(nodes))
	}
	for _, n := range nodes {
		if n == 0 || n == 3 {
			t.Fatalf("throttled node %d selected", n)
		}
	}
}

func TestSelectHealthyInsufficientPool(t *testing.T) {
	cfg := simnet.Tuned(3, 8, 4)
	cfg.ThrottledNodes = map[int]float64{0: 4, 1: 4}
	c := NewChecker(1.5)
	if _, err := c.SelectHealthy(ProbeNodes(cfg), 2); err == nil {
		t.Fatal("insufficient pool not rejected")
	}
}

func TestPruneConfig(t *testing.T) {
	cfg := simnet.Tuned(5, 16, 5)
	cfg.ThrottledNodes = map[int]float64{1: 4, 4: 2}
	pruned := PruneConfig(cfg, []int{0, 2, 3})
	if pruned.Nodes != 3 {
		t.Fatalf("pruned nodes = %d", pruned.Nodes)
	}
	if pruned.ThrottledNodes != nil {
		t.Fatalf("throttle entries survived pruning: %v", pruned.ThrottledNodes)
	}
	// Keeping a throttled node remaps its id.
	pruned2 := PruneConfig(cfg, []int{0, 4})
	if f := pruned2.ThrottledNodes[1]; f != 2 {
		t.Fatalf("remapped throttle = %v, want 2 at new id 1", f)
	}
}

func TestNewCheckerPanicsOnBadThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("threshold <= 1 did not panic")
		}
	}()
	NewChecker(1.0)
}

func TestHealthyClusterPassesCheck(t *testing.T) {
	cfg := simnet.Tuned(8, 16, 6)
	c := NewChecker(1.5)
	if failing := c.Evaluate(ProbeNodes(cfg)); len(failing) != 0 {
		t.Fatalf("healthy cluster failed check: %v", failing)
	}
}
