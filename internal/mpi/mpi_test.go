package mpi

import (
	"math"
	"strings"
	"testing"

	"amrtools/internal/sim"
	"amrtools/internal/simnet"
)

// quietConfig returns a deterministic, fault-free tuned config.
func quietConfig(nodes, rpn int) simnet.Config {
	cfg := simnet.Tuned(nodes, rpn, 1)
	cfg.AckLossProb = 0
	cfg.Jitter = 0
	return cfg
}

func newWorld(t *testing.T, cfg simnet.Config) (*sim.Engine, *World) {
	t.Helper()
	eng := sim.NewEngine()
	net := simnet.New(eng, cfg)
	return eng, NewWorld(eng, net)
}

func runWorld(t *testing.T, eng *sim.Engine) {
	t.Helper()
	eng.Run()
	if blocked := eng.Blocked(); len(blocked) != 0 {
		names := make([]string, len(blocked))
		for i, p := range blocked {
			names[i] = p.Name()
		}
		eng.Close()
		t.Fatalf("simulated deadlock; blocked procs: %v", names)
	}
}

func TestSendRecvBasic(t *testing.T) {
	eng, w := newWorld(t, quietConfig(1, 2))
	var recvAt float64
	w.Spawn(0, func(c *Comm) {
		req := c.Isend(1, 7, 1000)
		c.Wait(req)
	})
	w.Spawn(1, func(c *Comm) {
		req := c.Irecv(0, 7)
		c.Wait(req)
		recvAt = c.Now()
	})
	runWorld(t, eng)
	if recvAt <= 0 {
		t.Fatal("message never delivered")
	}
	cfg := quietConfig(1, 2)
	want := cfg.LocalLatency + 1000/cfg.LocalBandwidth
	if math.Abs(recvAt-want) > 1e-12 {
		t.Fatalf("delivery at %v, want %v", recvAt, want)
	}
	if w.Meter(0).MsgsSent != 1 || w.Meter(1).MsgsRecvd != 1 {
		t.Fatal("census counters wrong")
	}
}

func TestRecvBeforeSendAndAfter(t *testing.T) {
	// Both orders (recv posted early, message arrives first) must match.
	eng, w := newWorld(t, quietConfig(2, 1))
	got := 0
	w.Spawn(0, func(c *Comm) {
		c.Wait(c.Isend(1, 1, 64))
		c.Wait(c.Isend(1, 2, 64))
	})
	w.Spawn(1, func(c *Comm) {
		r1 := c.Irecv(0, 1) // posted before arrival
		c.Wait(r1)
		got++
		// Let the second message arrive unmatched, then post.
		c.Compute(0.01)
		r2 := c.Irecv(0, 2)
		if !r2.Done() {
			t.Error("late-posted recv not born complete")
		}
		c.Wait(r2)
		got++
	})
	runWorld(t, eng)
	if got != 2 {
		t.Fatalf("got %d receives", got)
	}
}

func TestFIFOMatchingPerKey(t *testing.T) {
	eng, w := newWorld(t, quietConfig(2, 1))
	var sizes []int
	w.Spawn(0, func(c *Comm) {
		c.Wait(c.Isend(1, 5, 100))
		c.Wait(c.Isend(1, 5, 200))
		c.Wait(c.Isend(1, 5, 300))
	})
	w.Spawn(1, func(c *Comm) {
		for i := 0; i < 3; i++ {
			r := c.Irecv(0, 5)
			c.Wait(r)
			sizes = append(sizes, r.bytes)
		}
	})
	runWorld(t, eng)
	if len(sizes) != 3 || sizes[0] != 100 || sizes[1] != 200 || sizes[2] != 300 {
		t.Fatalf("FIFO order violated: %v", sizes)
	}
}

func TestSelfSendPanics(t *testing.T) {
	eng, w := newWorld(t, quietConfig(1, 1))
	panicked := false
	w.Spawn(0, func(c *Comm) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		c.Isend(0, 0, 10)
	})
	eng.Run()
	if !panicked {
		t.Fatal("self-send did not panic")
	}
}

// TestSelfRecvPanics: a receive from self can never match — Isend to self
// panics — so it must be rejected at the call, naming it, instead of ending
// the run as an unexplained simulated deadlock.
func TestSelfRecvPanics(t *testing.T) {
	eng, w := newWorld(t, quietConfig(1, 2))
	var msg string
	w.Spawn(1, func(c *Comm) {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		c.Irecv(1, 0)
	})
	eng.Run()
	if !strings.Contains(msg, "rank 1 Irecv from self") {
		t.Fatalf("self-receive panic = %q, want it to name the rank and the call", msg)
	}
}

func TestWaitChargesCommWait(t *testing.T) {
	eng, w := newWorld(t, quietConfig(2, 1))
	w.Spawn(0, func(c *Comm) {
		c.Compute(0.5) // make the receiver wait half a second
		c.Wait(c.Isend(1, 0, 8))
	})
	w.Spawn(1, func(c *Comm) {
		r := c.Irecv(0, 0)
		c.Wait(r)
	})
	runWorld(t, eng)
	m := w.Meter(1)
	if m.CommWait < 0.49 {
		t.Fatalf("CommWait = %v, want ~0.5", m.CommWait)
	}
	if m.Waits != 1 {
		t.Fatalf("Waits = %d", m.Waits)
	}
	if w.Meter(0).Compute < 0.49 {
		t.Fatalf("sender compute = %v", w.Meter(0).Compute)
	}
}

func TestDrainQueueSuppressesStalls(t *testing.T) {
	cfg := simnet.Untuned(2, 1, 3)
	cfg.AckLossProb = 1
	cfg.DrainQueue = true
	cfg.Jitter = 0
	eng, w := newWorld(t, cfg)
	w.Spawn(0, func(c *Comm) {
		c.Wait(c.Isend(1, 0, 1024))
		if c.Now() > 1e-4 {
			t.Errorf("sender stalled %v despite drain queue", c.Now())
		}
	})
	w.Spawn(1, func(c *Comm) {
		c.Wait(c.Irecv(0, 0))
	})
	runWorld(t, eng)
	if w.Net().CensusTotal().Drained != 1 {
		t.Fatalf("drained = %d, want 1", w.Net().CensusTotal().Drained)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng, w := newWorld(t, quietConfig(2, 2))
	var releases []float64
	for r := 0; r < 4; r++ {
		r := r
		w.Spawn(r, func(c *Comm) {
			c.Compute(float64(r) * 0.1) // staggered arrivals
			c.Barrier()
			releases = append(releases, c.Now())
		})
	}
	runWorld(t, eng)
	if len(releases) != 4 {
		t.Fatalf("releases = %v", releases)
	}
	for _, rel := range releases {
		if math.Abs(rel-releases[0]) > 1e-12 {
			t.Fatalf("ranks released at different times: %v", releases)
		}
	}
	if releases[0] < 0.3 {
		t.Fatalf("release %v before last arrival 0.3", releases[0])
	}
	// Sync wait: rank 0 waited ~0.3s, rank 3 ~0.
	if w.Meter(0).Sync < 0.29 {
		t.Fatalf("rank0 sync = %v", w.Meter(0).Sync)
	}
	if w.Meter(3).Sync > 0.01 {
		t.Fatalf("rank3 sync = %v", w.Meter(3).Sync)
	}
}

func TestRepeatedBarriers(t *testing.T) {
	eng, w := newWorld(t, quietConfig(1, 3))
	counts := make([]int, 3)
	for r := 0; r < 3; r++ {
		r := r
		w.Spawn(r, func(c *Comm) {
			for i := 0; i < 5; i++ {
				c.Compute(0.01 * float64(r+1))
				c.Barrier()
				counts[r]++
			}
		})
	}
	runWorld(t, eng)
	for r, n := range counts {
		if n != 5 {
			t.Fatalf("rank %d completed %d barriers", r, n)
		}
	}
}

func TestComputeThrottleFactor(t *testing.T) {
	cfg := quietConfig(2, 1)
	cfg.ThrottledNodes = map[int]float64{1: 4}
	eng, w := newWorld(t, cfg)
	var healthy, throttled float64
	w.Spawn(0, func(c *Comm) { healthy = c.Compute(1) })
	w.Spawn(1, func(c *Comm) { throttled = c.Compute(1) })
	runWorld(t, eng)
	if healthy != 1 || throttled != 4 {
		t.Fatalf("compute durations = %v / %v, want 1 / 4", healthy, throttled)
	}
	if w.Meter(1).Compute != 4 {
		t.Fatalf("throttled meter = %v", w.Meter(1).Compute)
	}
}

func TestRemoteVsLocalCensus(t *testing.T) {
	eng, w := newWorld(t, quietConfig(2, 2)) // ranks 0,1 node0; 2,3 node1
	w.Spawn(0, func(c *Comm) {
		c.Wait(c.Isend(1, 0, 100)) // local
		c.Wait(c.Isend(2, 0, 100)) // remote
		c.IntraRank()
	})
	w.Spawn(1, func(c *Comm) { c.Wait(c.Irecv(0, 0)) })
	w.Spawn(2, func(c *Comm) { c.Wait(c.Irecv(0, 0)) })
	w.Spawn(3, func(c *Comm) {})
	runWorld(t, eng)
	cs := w.Net().CensusTotal()
	if cs.LocalMsgs != 1 || cs.RemoteMsgs != 1 || cs.IntraRank != 1 {
		t.Fatalf("census = %+v", cs)
	}
}

func TestNICSerialization(t *testing.T) {
	// Two large remote messages from the same node must serialize on the
	// NIC: the second arrives roughly one transfer time after the first.
	cfg := quietConfig(2, 2)
	eng, w := newWorld(t, cfg)
	var t1, t2 float64
	size := 5_000_000 // 1ms at 5 GB/s
	w.Spawn(0, func(c *Comm) { c.Isend(2, 0, size) })
	w.Spawn(1, func(c *Comm) { c.Isend(3, 0, size) })
	w.Spawn(2, func(c *Comm) { r := c.Irecv(0, 0); c.Wait(r); t1 = c.Now() })
	w.Spawn(3, func(c *Comm) { r := c.Irecv(1, 0); c.Wait(r); t2 = c.Now() })
	runWorld(t, eng)
	xfer := float64(size) / cfg.RemoteBandwidth
	if t2-t1 < xfer*0.9 {
		t.Fatalf("NIC did not serialize: t1=%v t2=%v xfer=%v", t1, t2, xfer)
	}
}

func TestShmContentionAddsDelay(t *testing.T) {
	// With a queue depth of 1, a burst of local messages must take longer
	// than with a deep queue.
	run := func(depth int) float64 {
		cfg := quietConfig(1, 2)
		cfg.ShmQueueDepth = depth
		cfg.ShmContentionPenalty = 1e-4
		eng := sim.NewEngine()
		net := simnet.New(eng, cfg)
		w := NewWorld(eng, net)
		var done float64
		w.Spawn(0, func(c *Comm) {
			var reqs []*Request
			for i := 0; i < 32; i++ {
				reqs = append(reqs, c.Isend(1, i, 1000))
			}
			c.WaitAll(reqs)
		})
		w.Spawn(1, func(c *Comm) {
			var reqs []*Request
			for i := 0; i < 32; i++ {
				reqs = append(reqs, c.Irecv(0, i))
			}
			c.WaitAll(reqs)
			done = c.Now()
		})
		eng.Run()
		return done
	}
	shallow := run(1)
	deep := run(1024)
	if shallow <= deep {
		t.Fatalf("contention missing: shallow=%v deep=%v", shallow, deep)
	}
}

func TestChargeRebalance(t *testing.T) {
	eng, w := newWorld(t, quietConfig(1, 1))
	w.Spawn(0, func(c *Comm) { c.ChargeRebalance(0.25) })
	runWorld(t, eng)
	if w.Meter(0).Rebalance != 0.25 {
		t.Fatalf("rebalance = %v", w.Meter(0).Rebalance)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() float64 {
		cfg := simnet.Untuned(4, 4, 42)
		eng := sim.NewEngine()
		net := simnet.New(eng, cfg)
		w := NewWorld(eng, net)
		for r := 0; r < w.NumRanks(); r++ {
			r := r
			w.Spawn(r, func(c *Comm) {
				n := w.NumRanks()
				for step := 0; step < 3; step++ {
					c.Compute(0.001 * float64(1+r%5))
					next := (r + 1) % n
					prev := (r + n - 1) % n
					rr := c.Irecv(prev, step)
					rs := c.Isend(next, step, 2048)
					c.Wait(rr)
					c.Wait(rs)
					c.Barrier()
				}
			})
		}
		return eng.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic end time: %v vs %v", a, b)
	}
}

func TestAllreduceSum(t *testing.T) {
	eng, w := newWorld(t, quietConfig(2, 2))
	results := make([]float64, 4)
	for r := 0; r < 4; r++ {
		r := r
		w.Spawn(r, func(c *Comm) {
			c.Compute(0.01 * float64(r+1)) // staggered arrivals
			results[r] = c.AllreduceSum(float64(r + 1))
		})
	}
	runWorld(t, eng)
	for r, v := range results {
		if v != 10 { // 1+2+3+4
			t.Fatalf("rank %d allreduce = %v, want 10", r, v)
		}
	}
	// The earliest-arriving rank waited in sync.
	if w.Meter(0).Sync <= 0 {
		t.Fatal("allreduce charged no sync time")
	}
}

func TestAllreduceRepeated(t *testing.T) {
	eng, w := newWorld(t, quietConfig(1, 3))
	bad := false
	for r := 0; r < 3; r++ {
		r := r
		w.Spawn(r, func(c *Comm) {
			for round := 1; round <= 4; round++ {
				got := c.AllreduceSum(float64(r))
				if got != 3 { // 0+1+2 each round
					bad = true
				}
				_ = round
			}
		})
	}
	runWorld(t, eng)
	if bad {
		t.Fatal("repeated allreduce produced a wrong sum")
	}
}

func TestMismatchedCollectivesPanic(t *testing.T) {
	eng, w := newWorld(t, quietConfig(1, 2))
	panicked := false
	w.Spawn(0, func(c *Comm) { c.Barrier() })
	w.Spawn(1, func(c *Comm) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		c.AllreduceSum(1)
	})
	eng.Run()
	eng.Close() // rank 0 stays blocked at its barrier
	if !panicked {
		t.Fatal("mixed Barrier/Allreduce round did not panic")
	}
}
