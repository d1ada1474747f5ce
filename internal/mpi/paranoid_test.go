package mpi

import (
	"os"
	"strings"
	"testing"

	"amrtools/internal/check"
)

// TestMain forces paranoid mode on for every simulation this package runs,
// so the standard test suite doubles as a violation-free audit pass.
func TestMain(m *testing.M) {
	check.Force(true)
	os.Exit(m.Run())
}

func TestParanoidDuplicateCollectiveArrival(t *testing.T) {
	// A rogue duplicate of rank 0 makes it arrive twice in one barrier
	// round. Without membership tracking the arrival count reaches nranks
	// and the barrier releases with rank 1 still missing; the audit must
	// instead panic with a violation naming the offending rank.
	eng, w := newWorld(t, quietConfig(1, 2))
	w.Spawn(0, func(c *Comm) { c.Barrier() })
	w.Spawn(0, func(c *Comm) { c.Barrier() }) // rogue: same rank again
	v, ok := check.Catch(func() { eng.Run() })
	eng.Close()
	if !ok {
		t.Fatal("duplicate barrier arrival raised no violation")
	}
	if v.Layer != "mpi" || v.Invariant != "collective-membership" {
		t.Fatalf("violation = %v, want mpi/collective-membership", v)
	}
	if !strings.Contains(v.Detail, "rank 0") {
		t.Fatalf("violation does not name the offending rank: %q", v.Detail)
	}
}

func TestParanoidOpenCollectiveRoundAtTeardown(t *testing.T) {
	// Rank 2 skips the barrier round entirely: the engine drains with the
	// round still open (ranks 0 and 1 parked). The blocked procs are
	// reported by Engine.Blocked; the teardown audit must also flag the
	// open round.
	eng, w := newWorld(t, quietConfig(1, 3))
	w.Spawn(0, func(c *Comm) { c.Barrier() })
	w.Spawn(1, func(c *Comm) { c.Barrier() })
	w.Spawn(2, func(c *Comm) { c.Compute(0.01) }) // skips the round
	eng.Run()
	if len(eng.Blocked()) == 0 {
		t.Fatal("expected ranks blocked in the abandoned barrier")
	}
	v, ok := check.Catch(func() { w.AuditTeardown() })
	eng.Close()
	if !ok {
		t.Fatal("open collective round raised no violation at teardown")
	}
	if v.Layer != "mpi" || v.Invariant != "collective-round-open" {
		t.Fatalf("violation = %v, want mpi/collective-round-open", v)
	}
}

func TestParanoidUnmatchedIsendAtTeardown(t *testing.T) {
	// Rank 0 sends a message nobody ever receives: it sits in rank 1's
	// mailbox when the engine drains.
	eng, w := newWorld(t, quietConfig(1, 2))
	w.Spawn(0, func(c *Comm) { c.Isend(1, 9, 256) })
	w.Spawn(1, func(c *Comm) { c.Compute(1) })
	runWorld(t, eng)
	v, ok := check.Catch(func() { w.AuditTeardown() })
	if !ok {
		t.Fatal("orphaned message raised no violation at teardown")
	}
	if v.Layer != "mpi" || v.Invariant != "mailbox-drain" {
		t.Fatalf("violation = %v, want mpi/mailbox-drain", v)
	}
	if !strings.Contains(v.Detail, "tag 9") {
		t.Fatalf("violation does not identify the message: %q", v.Detail)
	}
}

func TestParanoidUnmatchedIrecvAtTeardown(t *testing.T) {
	// Rank 1 posts a receive that never matches and exits without waiting
	// on it: the request is still queued when the engine drains.
	eng, w := newWorld(t, quietConfig(1, 2))
	w.Spawn(0, func(c *Comm) { c.Compute(0.01) })
	w.Spawn(1, func(c *Comm) { c.Irecv(0, 5) })
	runWorld(t, eng)
	v, ok := check.Catch(func() { w.AuditTeardown() })
	if !ok {
		t.Fatal("unmatched Irecv raised no violation at teardown")
	}
	if v.Layer != "mpi" || v.Invariant != "recvq-drain" {
		t.Fatalf("violation = %v, want mpi/recvq-drain", v)
	}
}

func TestParanoidCensusReconciliation(t *testing.T) {
	// After a clean exchange the mpi lanes and the network census agree; a
	// doctored send lane must break the census-msgs reconciliation.
	eng, w := newWorld(t, quietConfig(1, 2))
	w.Spawn(0, func(c *Comm) { c.Wait(c.Isend(1, 3, 512)) })
	w.Spawn(1, func(c *Comm) { c.Wait(c.Irecv(0, 3)) })
	runWorld(t, eng)
	w.AuditTeardown() // clean run must pass

	w.mx.P2PMsgs.Inc(0) // corrupt the accounting
	v, ok := check.Catch(func() { w.AuditTeardown() })
	if !ok {
		t.Fatal("corrupted send lane raised no violation")
	}
	if v.Layer != "mpi" || v.Invariant != "census-msgs" {
		t.Fatalf("violation = %v, want mpi/census-msgs", v)
	}
}
