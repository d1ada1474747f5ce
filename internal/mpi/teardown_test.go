package mpi

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"amrtools/internal/check"
)

// settled polls runtime.NumGoroutine until it is back at (or below) base: a
// stopped coroutine's exit trails the stop call by a few instructions.
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
// so the host is back at its pre-run goroutine count, and closing a second
// time must be harmless.
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

// TestTeardownAuditRequiresWait: every message below is sent, delivered and
// matched, so the mailbox, receive-queue, send-completion and census audits
// all pass — only the request-waited audit can tell that rank 0 dropped a
// request without waiting on it. It must name the rank, the peer and the tag
// of the first one posted, on both engines (two nodes, so two shards put the
// ranks on different ones), and a program that waits on everything must end
// Run cleanly.
func TestTeardownAuditRequiresWait(t *testing.T) {
	cases := []struct {
		name               string
		waitSend, waitRecv bool
		want               string // "" = clean
	}{
		{"neither waited", false, false, "rank 0 never waited on its Isend to rank 1 tag 7"},
		{"send dropped", false, true, "rank 0 never waited on its Isend to rank 1 tag 7"},
		{"recv dropped", true, false, "rank 0 never waited on its Irecv from rank 1 tag 8"},
		{"all waited", true, true, ""},
	}
	for _, shards := range []int{0, 2} {
		for _, tc := range cases {
			w := Launch(quietConfig(2, 1), shards)
			w.Spawn(0, func(c *Comm) {
				send, recv := c.Isend(1, 7, 64), c.Irecv(1, 8)
				if tc.waitSend {
					c.Wait(send)
				}
				if tc.waitRecv {
					c.Wait(recv)
				}
				c.Compute(1) // outlive both transfers either way
			})
			w.Spawn(1, func(c *Comm) {
				c.Wait(c.Irecv(0, 7))
				c.Wait(c.Isend(0, 8, 64))
			})
			var err error
			v, ok := check.Catch(func() { err = w.Run() }) // TestMain forces paranoid on
			w.Close()
			switch {
			case err != nil:
				t.Errorf("shards=%d %s: Run: %v", shards, tc.name, err)
			case tc.want == "" && ok:
				t.Errorf("shards=%d %s: clean run raised %v", shards, tc.name, v)
			case tc.want != "" && !ok:
				t.Errorf("shards=%d %s: no violation", shards, tc.name)
			case tc.want != "" && (v.Layer != "mpi" || v.Invariant != "request-waited" || !strings.Contains(v.Detail, tc.want)):
				t.Errorf("shards=%d %s: violation = %v, want mpi/request-waited: %s", shards, tc.name, v, tc.want)
			}
		}
	}
}
