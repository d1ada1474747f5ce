package driver

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"amrtools/internal/placement"
	"amrtools/internal/sim"
)

// settledGoroutines polls runtime.NumGoroutine until it is back at (or
// below) base: a closed worker's exit trails its WaitGroup.Done by a few
// instructions, so one read right after Run could still count it.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// panickyPolicy places like Baseline until its badAt-th call, which panics
// with boom — inside rank 0's program, at a redistribution barrier.
type panickyPolicy struct {
	placement.Baseline
	calls, badAt int
	boom         error
}

func (p *panickyPolicy) Assign(costs []float64, nranks int) placement.Assignment {
	if p.calls++; p.calls >= p.badAt {
		panic(p.boom)
	}
	return p.Baseline.Assign(costs, nranks)
}

// TestRunLeavesNoGoroutines: whichever way Run exits, every rank process and
// every shard worker is gone when it returns, and a panic out of a rank
// program reaches the caller with its original value.
func TestRunLeavesNoGoroutines(t *testing.T) {
	boom := errors.New("policy exploded")
	for _, shards := range []int{0, 2} {
		base := runtime.NumGoroutine()

		cfg := shardConfig(&panickyPolicy{badAt: 2, boom: boom}, 25, 2, shards)
		got := func() (r any) {
			defer func() { r = recover() }()
			_, _ = Run(cfg)
			return nil
		}()
		if got != boom {
			t.Fatalf("shards=%d: panic value %v reached the caller, want the policy's own %v", shards, got, boom)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("shards=%d: %d goroutines after a rank-program panic, %d before the run", shards, n, base)
		}

		// Interrupt once the run is under way, so rank processes exist and are
		// suspended mid-program.
		cfg = shardConfig(placement.Baseline{}, 25, 2, shards)
		polls := 0
		cfg.Interrupt = func() bool { polls++; return polls > 3 }
		if _, err := Run(cfg); !errors.Is(err, sim.ErrInterrupted) {
			t.Fatalf("shards=%d: error %v does not wrap sim.ErrInterrupted", shards, err)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("shards=%d: %d goroutines after an interrupted run, %d before it", shards, n, base)
		}

		if _, err := Run(shardConfig(placement.Baseline{}, 6, 2, shards)); err != nil {
			t.Fatal(err)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("shards=%d: %d goroutines after a clean run, %d before it", shards, n, base)
		}
	}
}
