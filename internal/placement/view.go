package placement

import "fmt"

// LocalView is one rank's contribution to a placement input in the
// distributed forest: the global SFC indices of the blocks the rank holds
// and its locally measured cost estimates for them. Ranks never see each
// other's telemetry; the gather of these views is the only collective a
// placement round needs before the policy runs.
type LocalView struct {
	Rank    int
	Indices []int32
	Costs   []float64
}

// GatherCosts assembles the SFC-ordered global cost vector policies consume
// from per-rank local views. Every one of the n blocks must be reported by
// exactly one rank; gaps or duplicates indicate a corrupted ownership view
// and panic.
func GatherCosts(views []LocalView, n int) []float64 {
	out := make([]float64, n)
	filled := make([]bool, n)
	for _, v := range views {
		if len(v.Indices) != len(v.Costs) {
			panic(fmt.Sprintf("placement: rank %d reports %d indices with %d costs",
				v.Rank, len(v.Indices), len(v.Costs)))
		}
		for k, i := range v.Indices {
			if i < 0 || int(i) >= n {
				panic(fmt.Sprintf("placement: rank %d reports block %d outside [0,%d)", v.Rank, i, n))
			}
			if filled[i] {
				panic(fmt.Sprintf("placement: block %d reported by two ranks", i))
			}
			filled[i] = true
			out[i] = v.Costs[k]
		}
	}
	for i, ok := range filled {
		if !ok {
			panic(fmt.Sprintf("placement: block %d reported by no rank", i))
		}
	}
	return out
}
