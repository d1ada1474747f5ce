package mpi

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"amrtools/internal/check"
	"amrtools/internal/sim"
	"amrtools/internal/simnet"
)

// launchEngines are the shard arguments every lifecycle test sweeps: the
// sequential engine, one shard, several, and more shards than nodes.
var launchEngines = []int{0, 1, 3, 64}

// TestLaunchLifecycle: the same program through Launch → Spawn → Run → Close
// on every engine. The quiet fabric draws no randomness, so all engines —
// the clamped 64-shard one included — must agree on clock, events, meters
// and census bit for bit.
func TestLaunchLifecycle(t *testing.T) {
	type outcome struct {
		now    sim.Time
		events int64
		meters []Meter
		sums   []float64
		census simnet.Census
	}
	var base *outcome
	for _, shards := range launchEngines {
		w := Launch(quietConfig(4, 2), shards)
		merges := 0
		if got, want := w.OnMerge(func(sim.Time) { merges++ }), shards > 0; got != want {
			t.Fatalf("shards=%d: OnMerge reported %v, want %v", shards, got, want)
		}
		sums := make([]float64, w.NumRanks())
		exerciseWorld(w, sums)
		if err := w.Run(); err != nil { // paranoid is forced: Run audited the teardown
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := &outcome{w.Now(), w.Events(), meters(w), sums, w.Net().CensusTotal()}
		w.Close()
		w.Close()
		if got.now <= 0 || got.events <= 0 {
			t.Fatalf("shards=%d: degenerate run %+v", shards, got)
		}
		if (merges > 0) != (shards > 0) {
			t.Errorf("shards=%d: merge hook ran %d times", shards, merges)
		}
		if base == nil {
			base = got
		} else if !reflect.DeepEqual(got, base) {
			t.Errorf("shards=%d diverged from the sequential engine:\n got %+v\nwant %+v", shards, got, base)
		}
	}
}

// TestRunEndings: Run turns an interrupt into an error wrapping
// sim.ErrInterrupted and a simulated deadlock into one naming the first
// blocked rank, lets a rank program's own panic through with its value, and
// ends a clean paranoid run with the teardown audits; Close then leaves no
// goroutine behind whichever way Run ended.
func TestRunEndings(t *testing.T) {
	boom := errors.New("rank program exploded")
	for _, shards := range launchEngines[:3] {
		base := runtime.NumGoroutine()
		launch := func(program func(c *Comm)) *World {
			w := Launch(quietConfig(3, 2), shards)
			for r := 0; r < w.NumRanks(); r++ {
				w.Spawn(r, program)
			}
			return w
		}

		w := launch(func(c *Comm) { c.Barrier() })
		w.SetInterrupt(func() bool { return true })
		if err := w.Run(); !errors.Is(err, sim.ErrInterrupted) {
			t.Errorf("shards=%d: interrupted Run returned %v", shards, err)
		}
		w.Close()

		w = launch(func(c *Comm) {
			if c.Rank() == 4 {
				c.Wait(c.Irecv(0, 99)) // nobody sends it
			}
			c.Barrier()
		})
		err := w.Run()
		if err == nil || !strings.Contains(err.Error(), "simulated deadlock, 6 ranks blocked (first: rank0)") {
			t.Errorf("shards=%d: deadlocked Run returned %v", shards, err)
		}
		w.Close()

		w = launch(func(c *Comm) {
			c.Barrier()
			if c.Rank() == 3 {
				panic(boom)
			}
			c.Barrier()
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			return w.Run()
		}()
		if got != boom {
			t.Errorf("shards=%d: Run surfaced %v, want the rank program's own panic value", shards, got)
		}
		w.Close()

		w = launch(func(c *Comm) {
			if c.Rank() == 0 {
				c.Wait(c.Isend(5, 9, 256)) // nobody receives it
			}
			c.Barrier()
		})
		v, ok := check.Catch(func() { _ = w.Run() })
		if !ok || v.Layer != "mpi" || v.Invariant != "mailbox-drain" {
			t.Errorf("shards=%d: Run over an orphaned message raised %v, want mpi/mailbox-drain", shards, v)
		}
		w.Close()

		if n := settled(base); n > base {
			t.Errorf("shards=%d: %d goroutines after four closed worlds, %d before", shards, n, base)
		}
	}
}

// TestSetParanoidReachesEveryLayer: one switch turns the audits on in the
// world, the fabric and the scheduler.
func TestSetParanoidReachesEveryLayer(t *testing.T) {
	unforced(t)
	for _, shards := range []int{0, 2} {
		w := Launch(quietConfig(2, 2), shards)
		if w.paranoid {
			t.Fatalf("shards=%d: fresh unforced world is paranoid", shards)
		}
		w.SetParanoid(true)
		// The fabric audit: releasing a slot nobody holds trips shm-slot only
		// when the network is paranoid.
		v, ok := check.Catch(func() { w.net.DeliveryDone(0, simnet.SendPlan{Local: true}) })
		if !w.paranoid || !ok || v.Invariant != "shm-slot" {
			t.Errorf("shards=%d: SetParanoid(true) left world=%v, fabric audit fired=%v (%v)", shards, w.paranoid, ok, v)
		}
		if st := w.shard; st != nil {
			// The scheduler audit: a delivery staged inside the lookahead.
			v, ok := check.Catch(func() { st.s.StageDelivery(0, 1, 0, 0, 2, 0, 8, 0) })
			if !ok || v.Invariant != "window-safety" {
				t.Errorf("shards=%d: scheduler audit fired=%v (%v)", shards, ok, v)
			}
		}
		w.Close()
	}
}
