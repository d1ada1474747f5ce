package simnet

import (
	"testing"

	"amrtools/internal/metrics"
	"amrtools/internal/sim"
)

func TestTopology(t *testing.T) {
	n := New(sim.NewEngine(), Tuned(4, 16, 1))
	if n.NumRanks() != 64 {
		t.Fatalf("NumRanks = %d", n.NumRanks())
	}
	if n.NodeOf(0) != 0 || n.NodeOf(15) != 0 || n.NodeOf(16) != 1 || n.NodeOf(63) != 3 {
		t.Fatal("NodeOf wrong")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero nodes did not panic")
		}
	}()
	New(sim.NewEngine(), Config{Nodes: 0, RanksPerNode: 16})
}

func TestComputeFactor(t *testing.T) {
	cfg := Tuned(2, 16, 1)
	cfg.ThrottledNodes = map[int]float64{1: 4}
	n := New(sim.NewEngine(), cfg)
	if f := n.ComputeFactor(0); f != 1 {
		t.Fatalf("healthy factor = %v", f)
	}
	if f := n.ComputeFactor(17); f != 4 {
		t.Fatalf("throttled factor = %v", f)
	}
}

func TestPlanSendLocalVsRemote(t *testing.T) {
	cfg := Tuned(2, 2, 1)
	cfg.AckLossProb = 0
	n := New(sim.NewEngine(), cfg)
	local := n.PlanSend(0, 1, 1000)
	if !local.Local {
		t.Fatal("same-node send not local")
	}
	remote := n.PlanSend(0, 2, 1000)
	if remote.Local {
		t.Fatal("cross-node send local")
	}
	if remote.DeliverAfter <= local.DeliverAfter {
		t.Fatalf("remote (%v) not slower than local (%v)", remote.DeliverAfter, local.DeliverAfter)
	}
	if n.CensusTotal().LocalMsgs != 1 || n.CensusTotal().RemoteMsgs != 1 {
		t.Fatalf("census = %+v", n.CensusTotal())
	}
}

func TestNICEgressSerializes(t *testing.T) {
	cfg := Tuned(2, 2, 1)
	cfg.AckLossProb = 0
	n := New(sim.NewEngine(), cfg)
	a := n.PlanSend(0, 2, 5_000_000)
	b := n.PlanSend(1, 2, 5_000_000)
	xfer := 5_000_000 / cfg.RemoteBandwidth
	if b.DeliverAfter < a.DeliverAfter+xfer*0.99 {
		t.Fatalf("second egress not serialized: %v vs %v", b.DeliverAfter, a.DeliverAfter)
	}
}

func TestShmQueueContention(t *testing.T) {
	cfg := Untuned(1, 2, 1)
	cfg.ShmQueueDepth = 2
	n := New(sim.NewEngine(), cfg)
	p1 := n.PlanSend(0, 1, 100)
	p2 := n.PlanSend(0, 1, 100)
	p3 := n.PlanSend(0, 1, 100) // exceeds depth
	if p3.DeliverAfter <= p2.DeliverAfter {
		t.Fatal("overflow message not delayed")
	}
	if n.CensusTotal().ShmContentions != 1 {
		t.Fatalf("contentions = %d", n.CensusTotal().ShmContentions)
	}
	// Releasing slots restores fast delivery.
	n.DeliveryDone(0, p1)
	n.DeliveryDone(0, p2)
	n.DeliveryDone(0, p3)
	p4 := n.PlanSend(0, 1, 100)
	if p4.DeliverAfter > p1.DeliverAfter*1.01 {
		t.Fatalf("slot release ineffective: %v vs %v", p4.DeliverAfter, p1.DeliverAfter)
	}
}

func TestAckStallAndDrain(t *testing.T) {
	cfg := Untuned(2, 1, 1)
	cfg.AckLossProb = 1
	n := New(sim.NewEngine(), cfg)
	p := n.PlanSend(0, 1, 100)
	if p.SenderDoneAfter < cfg.AckRecoveryDelay*0.4 {
		t.Fatalf("no ACK stall: %v", p.SenderDoneAfter)
	}
	if n.CensusTotal().AckStalls != 1 {
		t.Fatalf("stalls = %d", n.CensusTotal().AckStalls)
	}
	cfg.DrainQueue = true
	n2 := New(sim.NewEngine(), cfg)
	p2 := n2.PlanSend(0, 1, 100)
	if p2.SenderDoneAfter != cfg.SendOverhead {
		t.Fatalf("drain queue did not suppress stall: %v", p2.SenderDoneAfter)
	}
	if n2.CensusTotal().Drained != 1 {
		t.Fatalf("drained = %d", n2.CensusTotal().Drained)
	}
}

func TestCollectiveLatencyGrowsWithScale(t *testing.T) {
	n := New(sim.NewEngine(), Tuned(1, 2, 1))
	if n.CollectiveLatency(2) >= n.CollectiveLatency(4096) {
		t.Fatal("collective latency not growing with scale")
	}
	if n.CollectiveLatency(1) != 0 {
		t.Fatal("single-rank collective should be free")
	}
}

// TestCensusTotalFoldsNodesAndLanes: the census is tallied per node and the
// two stall counts live only in the instrument lanes, so CensusTotal must sum
// every node's paths and read the stalls from whichever set is installed.
func TestCensusTotalFoldsNodesAndLanes(t *testing.T) {
	cfg := Untuned(2, 2, 1)
	cfg.AckLossProb = 1
	cfg.ShmQueueDepth = 1
	n := New(sim.NewEngine(), cfg)
	set := metrics.NewRunSet(n.NumRanks(), cfg.Nodes, nil)
	n.SetMetrics(set.Net)
	n.PlanSend(0, 1, 10) // node 0, local
	n.PlanSend(0, 1, 10) // node 0, local, overflows the queue
	n.PlanSend(2, 3, 20) // node 1, local
	n.PlanSend(1, 2, 30) // node 0 -> 1, remote, ACK stall
	n.PlanSend(3, 0, 40) // node 1 -> 0, remote, ACK stall
	n.RecordIntraRank(0)
	n.RecordIntraRank(3)
	want := Census{IntraRank: 2, LocalMsgs: 3, RemoteMsgs: 2, LocalBytes: 40, RemoteBytes: 70,
		AckStalls: 2, ShmContentions: 1}
	if got := n.CensusTotal(); got != want {
		t.Fatalf("census = %+v, want %+v", got, want)
	}
	if got := set.Net.AckStalls.Total(); got != 2 {
		t.Fatalf("registered ack-stall lanes = %d, want 2", got)
	}
}

func TestTunedVsUntunedShape(t *testing.T) {
	tu := Tuned(4, 16, 1)
	un := Untuned(4, 16, 1)
	if un.ShmQueueDepth >= tu.ShmQueueDepth {
		t.Fatal("untuned queue should be smaller")
	}
	if un.DrainQueue || !tu.DrainQueue {
		t.Fatal("drain queue flags wrong")
	}
	if un.AckLossProb <= tu.AckLossProb {
		t.Fatal("untuned ACK loss should be higher")
	}
}
