package placement

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"amrtools/internal/xrand"
)

// TestFewBlocksPerSpan: fewer blocks than chunks or zones — down to none —
// used to slice out of range inside a chunk goroutine, where no recover can
// reach, and took the process down. Every n in [0, 2k] must now place
// cleanly, and spans that received no blocks leave their ranks empty.
func TestFewBlocksPerSpan(t *testing.T) {
	const nranks, k = 8, 4
	all := randomCosts(xrand.New(9), 2*k)
	for _, p := range []Policy{
		CDP{Restricted: true, ChunkSize: nranks / k},
		Zonal{Inner: LPT{}, Zones: k},
		Zonal{Inner: CDP{Restricted: true, ChunkSize: 1}, Zones: k},
		CPLX{X: 50, ChunkSize: nranks / k}, // rebalances across spans
	} {
		_, crossesSpans := p.(CPLX)
		for n := 0; n <= 2*k; n++ {
			a := p.Assign(all[:n], nranks)
			if err := Validate(a, n, nranks); err != nil {
				t.Fatalf("%s n=%d: %v", p.Name(), n, err)
			}
			if crossesSpans {
				continue
			}
			// Span s owns ranks [2s, 2s+2): a block stays on its span's
			// ranks, so the ranks of a span without blocks stay empty.
			bounds := equalCostBounds(prefixSums(all[:n]), k)
			for s := 0; s < k; s++ {
				for b := bounds[s]; b < bounds[s+1]; b++ {
					if int(a[b])/(nranks/k) != s {
						t.Errorf("%s n=%d: block %d of span %d on rank %d", p.Name(), n, b, s, a[b])
					}
				}
			}
		}
	}
	if a := (CPLX{X: 50, ChunkSize: 512}).Assign(nil, 4096); len(a) != 0 {
		t.Fatalf("chunked cpl50 on an empty block list placed %d blocks", len(a))
	}
}

// panicOn is a policy that panics when its first block has one of the
// listed costs, naming that cost.
type panicOn []float64

func (panicOn) Name() string { return "panic-on" }
func (p panicOn) Assign(costs []float64, nranks int) Assignment {
	for _, c := range p {
		if costs[0] == c {
			panic(fmt.Sprintf("inner policy failed on the zone starting at cost %g", c))
		}
	}
	return Baseline{}.Assign(costs, nranks)
}

// TestSpanPanicReachesCaller: a panic inside a zone used to be raised on a
// bare goroutine and kill the process. It must surface on the calling
// goroutine with its original value — where harness.Run turns it into a
// structured error — after every worker has stopped; when several spans
// panic, the lowest span index is the one reported, whatever the worker
// count.
func TestSpanPanicReachesCaller(t *testing.T) {
	costs := make([]float64, 40) // distinct, so a cost names its block
	for i := range costs {
		costs[i] = float64(i + 1)
	}
	const zones = 4
	b := equalCostBounds(prefixSums(costs), zones)
	if b[1] == b[2] || b[3] == b[4] {
		t.Fatalf("zones 1 and 3 must hold blocks: bounds %v", b)
	}
	inner := panicOn{costs[b[3]], costs[b[1]]} // zones 3 and 1 fail
	want := fmt.Sprintf("inner policy failed on the zone starting at cost %g", costs[b[1]])
	for _, procs := range []int{1, 2, 8} {
		before := runtime.NumGoroutine()
		got := withGOMAXPROCS(procs, func() (r any) {
			defer func() { r = recover() }()
			Zonal{Inner: inner, Zones: zones}.Assign(costs, 8)
			return nil
		})
		if got != want {
			t.Fatalf("GOMAXPROCS=%d: recovered %v, want %q", procs, got, want)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("GOMAXPROCS=%d: %d goroutines after the panic, %d before", procs, n, before)
		}
	}
}
