package mpi

import (
	"fmt"
	"slices"
	"testing"

	"amrtools/internal/sim"
)

// TestCollectiveRoundsOverlap runs back-to-back collectives — barriers and
// allreduces alternating — on the sequential engine and on 1, 2 and 4 shards.
// Rank r computes r·d before each collective, so rank 0 arrives first, is
// resumed first, and joins round k+1 while the slower ranks have not yet
// resumed from round k. Every rank must leave round k at last arrival + tree
// latency (doubled for allreduce) with the round's own sum, never a
// neighbouring round's.
func TestCollectiveRoundsOverlap(t *testing.T) {
	const rounds, d = 12, 1e-4
	cfg := quietConfig(4, 2)
	n := cfg.Nodes * cfg.RanksPerNode
	for _, engine := range []int{0, 1, 2, 4} {
		name := fmt.Sprintf("engine %d", engine)
		var (
			w   *World
			run func() sim.Time
			cls func()
		)
		if engine == 0 {
			eng, world := newWorld(t, cfg)
			w, run, cls = world, eng.Run, eng.Close
		} else {
			shs, world := newSharded(t, cfg, engine)
			w, run, cls = world, shs.Run, shs.Close
		}
		released := make([][]sim.Time, n)
		sums := make([][]float64, n)
		// Sequential engine only (one process runs at a time there): how many
		// ranks have left each round, and whether a rank ever entered the next
		// round before the last of them did.
		left := make([]int, rounds)
		overlapped := false
		for r := 0; r < n; r++ {
			w.Spawn(r, func(c *Comm) {
				for k := 0; k < rounds; k++ {
					if r > 0 {
						c.Compute(float64(r) * d)
					}
					if engine == 0 && k > 0 && left[k-1] < n {
						overlapped = true
					}
					if k%2 == 0 {
						c.Barrier()
					} else {
						sums[r] = append(sums[r], c.AllreduceSum(float64(r+k)))
					}
					released[r] = append(released[r], c.Now())
					if engine == 0 {
						left[k]++
					}
				}
			})
		}
		run()
		w.AuditTeardown()
		cls()
		if engine == 0 && !overlapped {
			t.Fatalf("%s: no rank entered a round before the previous one was left", name)
		}
		var tRel sim.Time
		for k := 0; k < rounds; k++ {
			lat := w.Net().CollectiveLatency(n)
			wantSum := 0.0
			if k%2 == 1 {
				lat *= 2
				for r := 0; r < n; r++ {
					wantSum += float64(r + k)
				}
			}
			tRel = tRel + float64(n-1)*d + lat // the last arrival is rank n-1
			for r := 0; r < n; r++ {
				if got := released[r][k]; got != tRel {
					t.Fatalf("%s round %d rank %d: released at %v, want %v", name, k, r, got, tRel)
				}
				if k%2 == 1 {
					if got := sums[r][k/2]; got != wantSum {
						t.Fatalf("%s round %d rank %d: allreduce %v, want %v", name, k, r, got, wantSum)
					}
				}
			}
		}
	}
}

// TestCollectiveResumesInArrivalOrder pins the sequential engine's release:
// one event completes the ranks' futures in arrival order, so the ranks
// resume in the order they arrived — whatever their rank order — and a round
// costs exactly one event beyond each rank's own resume.
func TestCollectiveResumesInArrivalOrder(t *testing.T) {
	cost := []float64{3e-3, 1e-3, 4e-3, 2e-3} // arrival order: 1, 3, 0, 2
	for _, op := range []string{"barrier", "allreduce"} {
		eng, w := newWorld(t, quietConfig(1, 4))
		var resumed []int
		for r := range cost {
			w.Spawn(r, func(c *Comm) {
				c.Compute(cost[r])
				if op == "barrier" {
					c.Barrier()
				} else {
					c.AllreduceSum(1)
				}
				resumed = append(resumed, r)
			})
		}
		runWorld(t, eng)
		w.AuditTeardown()
		if want := []int{1, 3, 0, 2}; !slices.Equal(resumed, want) {
			t.Fatalf("%s: ranks resumed in order %v, want arrival order %v", op, resumed, want)
		}
		// Per rank: its start, its compute, its resume; plus one release.
		if got, want := eng.Events(), int64(3*len(cost)+1); got != want {
			t.Fatalf("%s: %d events, want %d", op, got, want)
		}
	}
}

// TestAllreduceSumsInArrivalOrder pins the reduction order of each engine
// with a sum that depends on it. All three ranks arrive at t = 0, in spawn
// order 0, 2, 1, contributing 1e16, 1 and -1e16. The sequential engine sums
// in arrival order: 1e16 + 1 rounds back to 1e16, so the sum is 0. The
// scheduler sums in (t, rank) order, 1e16 - 1e16 + 1 = 1.
func TestAllreduceSumsInArrivalOrder(t *testing.T) {
	v := []float64{1e16, -1e16, 1}
	for _, engine := range []int{0, 1} {
		var (
			w   *World
			run func() sim.Time
			cls func()
		)
		cfg := quietConfig(1, 3)
		if engine == 0 {
			eng, world := newWorld(t, cfg)
			w, run, cls = world, eng.Run, eng.Close
		} else {
			shs, world := newSharded(t, cfg, engine)
			w, run, cls = world, shs.Run, shs.Close
		}
		got := make([]float64, len(v))
		for _, r := range []int{0, 2, 1} {
			w.Spawn(r, func(c *Comm) { got[r] = c.AllreduceSum(v[r]) })
		}
		run()
		w.AuditTeardown()
		cls()
		want := 0.0
		if engine > 0 {
			want = 1
		}
		for r, s := range got {
			if s != want {
				t.Fatalf("engine %d rank %d: allreduce %v, want %v", engine, r, s, want)
			}
		}
	}
}
