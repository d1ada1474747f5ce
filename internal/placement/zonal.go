package placement

import "fmt"

// Zonal wraps any policy with the zonal architecture the paper recommends
// beyond ~16K ranks (§VI-C, Fig 7c): ranks are divided into Zones zones,
// blocks are split into contiguous spans of approximately equal total cost,
// and each zone computes its placement independently and in parallel.
// Placement latency drops by roughly the zone count at a small cost in
// global balance (imbalance *between* zones is not corrected).
type Zonal struct {
	// Inner is the per-zone policy (e.g. CPLX{X: 50}).
	Inner Policy
	// Zones is the number of independent placement zones (k in Zheng et
	// al.'s hierarchical scheme).
	Zones int
}

// Name returns "zonal<k>-<inner>".
func (z Zonal) Name() string { return fmt.Sprintf("zonal%d-%s", z.Zones, z.Inner.Name()) }

// Assign splits blocks and ranks into zones and runs Inner per zone
// concurrently.
func (z Zonal) Assign(costs []float64, nranks int) Assignment {
	checkRanks("zonal", nranks)
	k := z.Zones
	if k <= 1 || nranks < 2*k {
		return z.Inner.Assign(costs, nranks)
	}
	a := make(Assignment, len(costs))
	forEachSpan(costs, nranks, k, func(sp span, _ *cdpScratch) {
		for i, r := range z.Inner.Assign(costs[sp.bLo:sp.bHi], sp.ranks) {
			a[sp.bLo+i] = int32(sp.rankLo) + r
		}
	})
	return a
}

// ByName constructs the standard policies from their experiment names:
// "baseline", "lpt", "cdp", "cdp-full", and "cplX" for integer X (e.g.
// "cpl0", "cpl25", "cpl50"). chunkSize applies to CDP-seeded policies
// (0 disables chunking).
func ByName(name string, chunkSize int) (Policy, error) {
	switch name {
	case "baseline":
		return Baseline{}, nil
	case "lpt":
		return LPT{}, nil
	case "cdp":
		return CDP{Restricted: true, ChunkSize: chunkSize}, nil
	case "cdp-full":
		return CDP{Restricted: false}, nil
	}
	var x int
	if _, err := fmt.Sscanf(name, "cpl%d", &x); err == nil && x >= 0 && x <= 100 {
		return CPLX{X: x, ChunkSize: chunkSize}, nil
	}
	return nil, fmt.Errorf("placement: unknown policy %q", name)
}

// StandardSuite returns the policy set the paper evaluates in Fig 6:
// the baseline plus CPLX at X ∈ {0, 25, 50, 75, 100}.
func StandardSuite(chunkSize int) []Policy {
	return []Policy{
		Baseline{},
		CPLX{X: 0, ChunkSize: chunkSize},
		CPLX{X: 25, ChunkSize: chunkSize},
		CPLX{X: 50, ChunkSize: chunkSize},
		CPLX{X: 75, ChunkSize: chunkSize},
		CPLX{X: 100, ChunkSize: chunkSize},
	}
}
