package mpi

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"amrtools/internal/check"
	"amrtools/internal/sim"
	"amrtools/internal/simnet"
)

// unforced turns the package-wide paranoid override (set by TestMain) off
// for one test, restoring it at cleanup. Request recycling is disabled
// under paranoid mode — the teardown audit holds request pointers — so the
// pooling and allocation-budget tests below need the production setting.
func unforced(t *testing.T) {
	t.Helper()
	check.Force(false)
	t.Cleanup(func() { check.Force(true) })
}

// --- satellite: peer-rank validation at the call site ---

func TestIsendInvalidPeerPanics(t *testing.T) {
	for _, dst := range []int{-1, 2, 100} {
		eng, w := newWorld(t, quietConfig(1, 2))
		var msg string
		w.Spawn(0, func(c *Comm) {
			defer func() {
				if r := recover(); r != nil {
					msg = r.(string)
				}
			}()
			c.Isend(dst, 0, 64)
		})
		eng.Run()
		if msg == "" {
			t.Fatalf("Isend to rank %d did not panic", dst)
		}
		if !strings.Contains(msg, "rank 0") || !strings.Contains(msg, "invalid peer") {
			t.Fatalf("Isend panic does not name the rank and peer: %q", msg)
		}
	}
}

func TestIrecvInvalidPeerPanics(t *testing.T) {
	for _, src := range []int{-3, 2} {
		eng, w := newWorld(t, quietConfig(1, 2))
		var msg string
		w.Spawn(1, func(c *Comm) {
			defer func() {
				if r := recover(); r != nil {
					msg = r.(string)
				}
			}()
			c.Irecv(src, 0)
		})
		eng.Run()
		if msg == "" {
			t.Fatalf("Irecv from rank %d did not panic", src)
		}
		if !strings.Contains(msg, "rank 1") || !strings.Contains(msg, "invalid peer") {
			t.Fatalf("Irecv panic does not name the rank and peer: %q", msg)
		}
	}
}

// TestTagOutsideInt32Panics: delivery events and the match index carry tags
// as int32, so a wider tag could never match and the run would end as an
// unexplained simulated deadlock. Both posting calls reject it, naming rank,
// peer and tag; the int32 extremes themselves stay legal.
func TestTagOutsideInt32Panics(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int is 32 bits: every tag is in range")
	}
	over, under := math.MaxInt32, math.MinInt32
	over++
	under--
	for _, tag := range []int{over, under, over << 8} {
		for _, post := range []struct {
			name string
			call func(c *Comm)
		}{
			{"Isend", func(c *Comm) { c.Isend(1, tag, 64) }},
			{"Irecv", func(c *Comm) { c.Irecv(1, tag) }},
		} {
			eng, w := newWorld(t, quietConfig(1, 2))
			var msg string
			w.Spawn(0, func(c *Comm) {
				defer func() {
					if r := recover(); r != nil {
						msg = r.(string)
					}
				}()
				post.call(c)
			})
			eng.Run()
			for _, want := range []string{post.name, "rank 0", "rank 1", fmt.Sprint(tag), "int32"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("%s with tag %d: panic %q does not mention %q", post.name, tag, msg, want)
				}
			}
		}
	}
	eng, w := newWorld(t, quietConfig(1, 2))
	w.Spawn(0, func(c *Comm) {
		c.Wait(c.Isend(1, math.MaxInt32, 8))
		c.Wait(c.Isend(1, math.MinInt32, 8))
	})
	w.Spawn(1, func(c *Comm) {
		c.Wait(c.Irecv(0, math.MinInt32))
		c.Wait(c.Irecv(0, math.MaxInt32))
	})
	runWorld(t, eng)
	w.AuditTeardown()
}

// --- request pooling semantics ---

// TestRequestRecycledAfterWait: outside paranoid mode, Wait returns the
// request to the world free list and the next post reuses the same object.
func TestRequestRecycledAfterWait(t *testing.T) {
	unforced(t)
	eng, w := newWorld(t, quietConfig(1, 2))
	var first, second *Request
	w.Spawn(0, func(c *Comm) {
		first = c.Isend(1, 0, 64)
		c.Wait(first)
		second = c.Isend(1, 1, 64)
		c.Wait(second)
	})
	w.Spawn(1, func(c *Comm) {
		c.Wait(c.Irecv(0, 0))
		c.Wait(c.Irecv(0, 1))
	})
	runWorld(t, eng)
	if first != second {
		t.Error("second Isend did not reuse the recycled request")
	}
	if len(w.pool.reqFree) == 0 {
		t.Error("no requests on the free list after all Waits completed")
	}
}

// doubleWait runs a send/receive pair whose sender waits twice on its
// request and returns the world with the second Wait's panic message.
func doubleWait(t *testing.T) (*World, string) {
	t.Helper()
	eng, w := newWorld(t, quietConfig(1, 2))
	var msg string
	w.Spawn(0, func(c *Comm) {
		req := c.Isend(1, 0, 64)
		c.Wait(req)
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		c.Wait(req)
	})
	w.Spawn(1, func(c *Comm) { c.Wait(c.Irecv(0, 0)) })
	runWorld(t, eng)
	return w, msg
}

// TestWaitTwicePanicsWhenRecycling: waiting on an already-released request
// is use-after-free; the freed marker must catch it deterministically.
func TestWaitTwicePanicsWhenRecycling(t *testing.T) {
	unforced(t)
	if _, msg := doubleWait(t); !strings.Contains(msg, "already released") {
		t.Fatalf("double Wait did not panic with the release message: %q", msg)
	}
}

// TestParanoidKeepsRequestsLive: under paranoid mode requests are never
// recycled (the teardown audit asserts on the recorded pointers), yet a
// waited request carries the same freed mark as in production — it is what
// the request-waited audit reads — so a second Wait panics here too.
func TestParanoidKeepsRequestsLive(t *testing.T) {
	w, msg := doubleWait(t) // TestMain forces paranoid on
	if !strings.Contains(msg, "already released") {
		t.Fatalf("double Wait did not panic with the release message: %q", msg)
	}
	if len(w.pool.reqFree) != 0 {
		t.Fatal("paranoid mode recycled a request the teardown audit tracks")
	}
	w.AuditTeardown()
}

// TestAllreduceSumWithPooling locks the value semantics under state reuse:
// every round's sum must be freshly accumulated, never inherited from the
// recycled state.
func TestAllreduceSumWithPooling(t *testing.T) {
	unforced(t)
	eng, w := newWorld(t, quietConfig(1, 3))
	bad := false
	for r := 0; r < 3; r++ {
		r := r
		w.Spawn(r, func(c *Comm) {
			for round := 0; round < 4; round++ {
				if got := c.AllreduceSum(float64(r + 1)); got != 6 {
					bad = true
				}
			}
		})
	}
	runWorld(t, eng)
	if bad {
		t.Fatal("pooled allreduce state leaked a previous round's sum")
	}
}

// --- satellite: allocation-regression tests for the message hot path ---

// perMessageAllocs runs a ping-pong-style exchange of msgs messages through
// f and returns the average allocations per message, amortizing the
// per-drain spawn overhead (two procs, two goroutines) across the batch.
func hotPathAllocs(t *testing.T, msgs int, body func(eng *sim.Engine, w *World)) float64 {
	t.Helper()
	unforced(t)
	eng := sim.NewEngine()
	net := simnet.New(eng, quietConfig(1, 4))
	w := NewWorld(eng, net)
	return testing.AllocsPerRun(5, func() { body(eng, w) }) / float64(msgs)
}

// TestIsendWaitAllocBudget: a send/recv/wait round trip — two requests, two
// futures, two matching-queue transitions, four DES events — must allocate
// (amortized) nothing once the pools are warm. The pre-pooling runtime spent
// ~6 allocations per message here; the budget locks in the ≥80% reduction
// with a wide margin so noise cannot flake the test.
func TestIsendWaitAllocBudget(t *testing.T) {
	const msgs = 512
	per := hotPathAllocs(t, msgs, func(eng *sim.Engine, w *World) {
		w.Spawn(0, func(c *Comm) {
			for i := 0; i < msgs; i++ {
				c.Wait(c.Isend(1, 0, 1024))
			}
		})
		w.Spawn(1, func(c *Comm) {
			for i := 0; i < msgs; i++ {
				c.Wait(c.Irecv(0, 0))
			}
		})
		eng.Run()
	})
	if per > 0.1 {
		t.Errorf("Isend/Irecv/Wait allocates %.3f objects per message, want ~0 (spawn overhead only)", per)
	}
}

// TestUnmatchedArrivalAllocBudget: messages that arrive before their
// receive is posted park in the mailbox ring — also allocation-free once
// the ring has grown to the burst size.
func TestUnmatchedArrivalAllocBudget(t *testing.T) {
	const msgs = 256
	per := hotPathAllocs(t, msgs, func(eng *sim.Engine, w *World) {
		w.Spawn(0, func(c *Comm) {
			for i := 0; i < msgs; i++ {
				c.Wait(c.Isend(1, 0, 128))
			}
		})
		w.Spawn(1, func(c *Comm) {
			c.Compute(1) // let every message arrive unmatched first
			for i := 0; i < msgs; i++ {
				c.Wait(c.Irecv(0, 0))
			}
		})
		eng.Run()
	})
	if per > 0.15 {
		t.Errorf("unmatched arrival path allocates %.3f objects per message, want ~0", per)
	}
}

// TestBarrierAllocBudget: a full barrier round (join, release event, one
// resume per rank, state retire) must not allocate once the round pool and
// waiter slices are warm. The four ranks are spawned once, outside the
// measured closure (TestSpawnAllocBudget in sim prices a spawn on its own):
// each measured Step sequence runs exactly `rounds` rounds of the ranks'
// endless barrier loop, so the figure is allocations per round and nothing
// else.
func TestBarrierAllocBudget(t *testing.T) {
	const rounds = 256
	unforced(t)
	eng := sim.NewEngine()
	net := simnet.New(eng, quietConfig(1, 4))
	w := NewWorld(eng, net)
	done := 0 // rounds rank 0 has completed
	for r := 0; r < 4; r++ {
		r := r
		w.Spawn(r, func(c *Comm) {
			for {
				c.Barrier()
				if r == 0 {
					done++
				}
			}
		})
	}
	defer eng.Close()
	per := testing.AllocsPerRun(5, func() {
		for target := done + rounds; done < target; {
			eng.Step()
		}
	}) / rounds
	if per > 0.02 {
		t.Errorf("barrier round allocates %.3f objects, want 0", per)
	}
}
