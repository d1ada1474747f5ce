package mpi

import (
	"runtime"
	"testing"
	"time"
)

// settled polls runtime.NumGoroutine until it is back at (or below) base: a
// closed worker's exit trails its WaitGroup.Done by a few instructions.
func settled(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestCloseReleasesDeadlockedRanks: a simulated deadlock — rank 0 waits for
// a message nobody sends, every other rank waits for rank 0 at a barrier —
// leaves all ranks suspended after Run. Close must unwind every one of them
// (and, sharded, stop the worker pool) so the host is back at its pre-run
// goroutine count, and closing a second time must be harmless.
func TestCloseReleasesDeadlockedRanks(t *testing.T) {
	program := func(c *Comm) {
		if c.Rank() == 0 {
			c.Wait(c.Irecv(1, 99))
		}
		c.Barrier()
	}
	base := runtime.NumGoroutine()
	eng, w := newWorld(t, quietConfig(2, 4))
	for r := 0; r < w.NumRanks(); r++ {
		w.Spawn(r, program)
	}
	eng.Run()
	if got := len(eng.Blocked()); got != w.NumRanks() {
		t.Fatalf("single engine: %d ranks blocked, want all %d", got, w.NumRanks())
	}
	eng.Close()
	eng.Close()
	if n := settled(base); n > base {
		t.Errorf("single engine: %d goroutines after Close, %d before the run", n, base)
	}

	base = runtime.NumGoroutine()
	shs, sw := newSharded(t, quietConfig(2, 4), 2)
	shs.SetMinParallel(1) // start the worker pool even for this short run
	for r := 0; r < sw.NumRanks(); r++ {
		sw.Spawn(r, program)
	}
	shs.Run()
	if got := len(shs.Blocked()); got != sw.NumRanks() {
		t.Fatalf("2 shards: %d ranks blocked, want all %d", got, sw.NumRanks())
	}
	shs.Close()
	shs.Close()
	if n := settled(base); n > base {
		t.Errorf("2 shards: %d goroutines after Close, %d before the run", n, base)
	}
}
