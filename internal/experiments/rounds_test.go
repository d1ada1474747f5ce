package experiments

import (
	"errors"
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

// TestRoundSpecsHonourTimeout: the commbench and neighborhood specs run
// through the shared round runner, so a harness timeout reaches them like any
// driver run — the spec is marked timed out, its simulation is interrupted
// (not simulated on to completion) and its goroutine comes back.
func TestRoundSpecsHonourTimeout(t *testing.T) {
	dims := QuickScale.RootDims
	base := runtime.NumGoroutine()
	errs := make(chan error, 2) // one send per spec
	exec := harness.Exec{Workers: 1, Timeout: time.Millisecond}

	fig7a := harness.Run(exec, "fig7a", []harness.Spec[meshRun]{spying(
		commbenchSpec("mesh0", 128, dims, placement.CPLX{X: 50}, 50, xrand.New(1)), errs)})
	nbr := harness.Run(exec, "neighborhood", []harness.Spec[roundOut]{spying(
		neighborhoodSpec("mesh0", 128, dims, false, 50, xrand.New(2)), errs)})
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
