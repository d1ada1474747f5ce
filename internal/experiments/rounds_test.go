package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"amrtools/internal/check"
	"amrtools/internal/harness"
	"amrtools/internal/placement"
	"amrtools/internal/sim"
	"amrtools/internal/xrand"
)

// spying wraps a spec so the test sees the error its Run returned even when
// the harness has already given up on the run and discards it.
func spying[T any](s harness.Spec[T], errs chan<- error) harness.Spec[T] {
	inner := s.Run
	s.Run = func(m *harness.Meter) (T, error) {
		v, err := inner(m)
		errs <- err
		return v, err
	}
	return s
}

// TestRoundSpecsHonourTimeout: a commbench cell and a neighborhood cell run
// through the one round spec, so a harness timeout reaches them like any
// driver run — the spec is marked timed out, its simulation is interrupted
// (not simulated on to completion) and its goroutine comes back.
func TestRoundSpecsHonourTimeout(t *testing.T) {
	base := runtime.NumGoroutine()
	errs := make(chan error, 2) // one send per spec
	exec := harness.Exec{Workers: 1, Timeout: time.Millisecond}

	commbench := roundCell{sc: QuickScale, pol: placement.CPLX{X: 50}}
	neighborhood := roundCell{sc: QuickScale, pol: placement.CPLX{X: 50}, unitCosts: true}
	fig7a := harness.Run(exec, "fig7a", []harness.Spec[roundsResult]{spying(
		roundSpec("mesh0", commbench, 50, xrand.New(1)), errs)})
	nbr := harness.Run(exec, "neighborhood", []harness.Spec[roundsResult]{spying(
		roundSpec("mesh0", neighborhood, 50, xrand.New(2)), errs)})
	if fig7a[0].Status != harness.StatusTimeout || nbr[0].Status != harness.StatusTimeout {
		t.Fatalf("statuses %v and %v, want two timeouts", fig7a[0].Status, nbr[0].Status)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, sim.ErrInterrupted) {
				t.Errorf("abandoned spec ended with %v, want an interrupted simulation", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("abandoned spec still running")
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Errorf("%d goroutines after the timed-out specs, %d before", n, base)
	}
}

// ringPlan is a round in which every rank sends one face-sized message to
// its slot on the next node and `near` further ranks: local and remote paths.
func ringPlan(ranks, near int) *roundPlan {
	plan := newRoundPlan(ranks)
	for r := 0; r < ranks; r++ {
		plan.add(r, (r+16)%ranks, boundaryBytes[0])
		for d := 1; d <= near; d++ {
			plan.add(r, (r+d)%ranks, boundaryBytes[d%3])
		}
	}
	return plan
}

// TestRoundRunnerAuditsTeardown: every world the runner launches audits its
// own teardown when paranoid (TestMain forces it), so a plan that leaves one
// send unreceived trips mailbox-drain instead of printing a latency.
func TestRoundRunnerAuditsTeardown(t *testing.T) {
	plan := ringPlan(64, 2)
	if _, err := runRounds(nil, 3, xrand.New(7), plan); err != nil {
		t.Fatalf("clean plan: %v", err)
	}
	plan.sends[3] = append(plan.sends[3], roundMsg{peer: 40, tag: plan.ntags, size: 64})
	plan.ntags++
	v, ok := check.Catch(func() { _, _ = runRounds(nil, 3, xrand.New(7), plan) })
	if !ok || v.Layer != "mpi" || v.Invariant != "mailbox-drain" {
		t.Errorf("orphaned send raised %v, want mpi/mailbox-drain", v)
	}
}

// TestRoundRunnerGOMAXPROCSIdentity draws round plans from a committed seed
// list and requires identical latencies, census and event counts at
// GOMAXPROCS 1 and 4 — the randomized net of driver.TestRandomizedDriverNet,
// cast over the runner.
func TestRoundRunnerGOMAXPROCSIdentity(t *testing.T) {
	for _, seed := range []uint64{3, 17, 20261001, 0xfeed} {
		rng := xrand.New(seed)
		ranks := 32 << rng.Intn(3) // 32, 64, 128: 2, 4, 8 nodes
		rounds := 2 + rng.Intn(4)
		plan := ringPlan(ranks, rng.Intn(4))
		for extra := rng.Intn(ranks); extra > 0; extra-- {
			if src, dst := rng.Intn(ranks), rng.Intn(ranks); src != dst {
				plan.add(src, dst, 1+rng.Intn(1<<16))
			}
		}
		netSeed := rng.Uint64()
		run := func(procs int) roundsResult {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			res, err := runRounds(nil, rounds, xrand.New(netSeed), plan)
			if err != nil {
				t.Fatalf("seed %d GOMAXPROCS=%d: %v", seed, procs, err)
			}
			return res
		}
		base := run(1)
		if len(base.lats) != rounds-1 || base.events <= 0 || base.census.LocalMsgs+base.census.RemoteMsgs != int64(rounds*plan.ntags) {
			t.Fatalf("seed %d (%d ranks, %d rounds, %d msgs): degenerate base %+v", seed, ranks, rounds, plan.ntags, base)
		}
		if got := run(4); !reflect.DeepEqual(got, base) {
			t.Errorf("seed %d (%d ranks, %d rounds, %d msgs): GOMAXPROCS=4 diverged:\n got %+v\nwant %+v",
				seed, ranks, rounds, plan.ntags, got, base)
		}
	}
}

// TestRoundPlanInvariants draws cells from a committed seed list (64–256
// ranks, two policies, both cost sources) and checks, for one mesh, the
// plans the one builder makes: no self-sends, tags 0..ntags-1 each posted
// once by its sender and once by its receiver, and an aggregated plan that
// carries exactly the per-message plan's bytes for every (src, dst) pair as
// one message per pair, posted in (src, dst) order.
func TestRoundPlanInvariants(t *testing.T) {
	policies := []placement.Policy{placement.CPLX{X: 0}, placement.CPLX{X: 100}}
	for _, seed := range []uint64{5, 11, 42, 20261019, 0xbeef} {
		rng := xrand.New(seed)
		ranks := 64 << rng.Intn(3)
		dims, err := cubeDims(ranks)
		if err != nil {
			t.Fatal(err)
		}
		c := roundCell{sc: SedovScale{Ranks: ranks, RootDims: dims},
			pol: policies[rng.Intn(len(policies))], unitCosts: rng.Intn(2) == 0}
		meshSeed := rng.Uint64()
		p2p := roundPlanFor(c, xrand.New(meshSeed))
		c.aggregate = true
		agg := roundPlanFor(c, xrand.New(meshSeed))
		name := fmt.Sprintf("seed %d (%d ranks, %s, unit costs %v)", seed, ranks, c.pol.Name(), c.unitCosts)
		checkRoundPlan(t, name+" per message", p2p)
		checkRoundPlan(t, name+" aggregated", agg)

		pairBytes := map[[2]int]int{}
		for src, sends := range p2p.sends {
			for _, e := range sends {
				pairBytes[[2]int{src, e.peer}] += e.size
			}
		}
		if len(pairBytes) == 0 || agg.ntags != len(pairBytes) {
			t.Errorf("%s: %d aggregated messages for %d communicating pairs", name, agg.ntags, len(pairBytes))
		}
		next, prev := 0, [2]int{-1, -1}
		for src, sends := range agg.sends {
			for _, e := range sends {
				pair := [2]int{src, e.peer}
				if e.size != pairBytes[pair] {
					t.Errorf("%s: pair %v carries %d bytes aggregated, %d per message", name, pair, e.size, pairBytes[pair])
				}
				if pair[0] == prev[0] && pair[1] <= prev[1] || e.tag != next {
					t.Errorf("%s: pair %v posted with tag %d after %v, want tag %d in (src, dst) order", name, pair, e.tag, prev, next)
				}
				next, prev = next+1, pair
			}
		}
	}
}

// checkRoundPlan requires every message of plan to leave one rank for
// another under its own tag below ntags, and to be posted once as a send and
// once as the matching receive.
func checkRoundPlan(t *testing.T, name string, plan *roundPlan) {
	t.Helper()
	type msg struct{ src, dst, size int }
	sent := make([]*msg, plan.ntags)
	for src, sends := range plan.sends {
		for _, e := range sends {
			switch {
			case e.peer == src:
				t.Errorf("%s: rank %d sends to itself", name, src)
			case e.tag < 0 || e.tag >= plan.ntags || sent[e.tag] != nil:
				t.Errorf("%s: send %d→%d has tag %d: out of range or reused", name, src, e.peer, e.tag)
			default:
				sent[e.tag] = &msg{src, e.peer, e.size}
			}
		}
	}
	recvd := make([]bool, plan.ntags)
	for dst, recvs := range plan.recvs {
		for _, e := range recvs {
			if e.tag < 0 || e.tag >= plan.ntags || recvd[e.tag] || sent[e.tag] == nil ||
				*sent[e.tag] != (msg{e.peer, dst, e.size}) {
				t.Errorf("%s: receive %d←%d tag %d size %d matches no unique send", name, dst, e.peer, e.tag, e.size)
				continue
			}
			recvd[e.tag] = true
		}
	}
	for tag := range sent {
		if sent[tag] == nil || !recvd[tag] {
			t.Errorf("%s: tag %d is not both sent and received", name, tag)
		}
	}
}
