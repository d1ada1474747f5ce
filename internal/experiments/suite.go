package experiments

import (
	"fmt"
	"sort"
	"strings"

	"amrtools/internal/telemetry"
)

// NamedTable pairs a rendered table with its panel caption (empty for
// single-table experiments).
type NamedTable struct {
	Name  string
	Table *telemetry.Table
}

// Experiment is one entry of the paper's evaluation: a stable id (used by
// the -only flag), a human title, and a runner producing one or more tables
// or the error of the run that failed.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) ([]NamedTable, error)
}

// single adapts a one-table runner to Experiment.Run.
func single(run func(Options) (*telemetry.Table, error)) func(Options) ([]NamedTable, error) {
	return func(o Options) ([]NamedTable, error) {
		t, err := run(o)
		if err != nil {
			return nil, err
		}
		return []NamedTable{{Table: t}}, nil
	}
}

// Suite returns every experiment in presentation order (the order DESIGN.md
// documents and cmd/experiments prints).
func Suite() []Experiment {
	return []Experiment{
		{"fig1top", "Fig 1 (top): telemetry correlation before/after tuning", single(Fig1Top)},
		{"fig1bottom", "Fig 1 (bottom): MPI_Wait spikes and drain-queue mitigation", single(Fig1Bottom)},
		{"fig2", "Fig 2: thermal throttling and health-check pruning", single(Fig2)},
		{"fig3", "Fig 3: rankwise boundary communication across tuning stages", single(Fig3)},
		{"fig4", "Fig 4: critical paths within a synchronization window", single(Fig4)},
		{"table1", "Table I: Sedov Blast Wave 3D problem configurations", single(TableI)},
		{"fig6", "Fig 6: placement policy evaluation (Sedov, 512-4096 ranks)",
			func(o Options) ([]NamedTable, error) {
				a, b, c, err := Fig6(o)
				if err != nil {
					return nil, err
				}
				return []NamedTable{
					{"(a) runtime by phase", a},
					{"(b) comm/sync vs baseline", b},
					{"(c) message locality", c},
				}, nil
			}},
		{"cooling", "§VI: galaxy-cooling comparison (directionally similar)", single(Fig6Cooling)},
		{"fig7a", "Fig 7 (top): commbench round latency vs locality", single(Fig7a)},
		{"fig7b", "Fig 7 (middle): scalebench normalized makespan", single(Fig7b)},
		{"fig7c", "Fig 7 (bottom): placement computation overhead", single(Fig7c)},
		{"lptilp", "§V-B: LPT vs exact solver", single(LPTvsILP)},
		{"ablations", "Design ablations: cost source, rebalance ends, EWMA alpha", single(Ablations)},
		{"lbinterval", "Extension: deferred load balancing (placement trigger frequency)", single(LBIntervalSweep)},
		{"hilbert", "Extension: Hilbert vs Morton block ordering", single(HilbertOrderStudy)},
		{"neighborhood", "Extension: neighborhood-collective aggregation vs raw P2P", single(NeighborhoodCollectives)},
		{"scale", "Extension: distributed-forest rank scaling (per-rank metadata economy)", single(Scale)},
		{"differential", "Differential audit: CPL0 = CDP, CPL100 = LPT, -j identity (paranoid)", single(Differential)},
	}
}

// SuiteIDs returns the sorted experiment ids, for error messages and docs.
func SuiteIDs() []string {
	var ids []string
	for _, e := range Suite() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// Select filters the suite down to the comma-separated ids in only (empty
// selects everything, preserving suite order). Unknown ids are an error.
func Select(only string) ([]Experiment, error) {
	suite := Suite()
	if only == "" {
		return suite, nil
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		selected[strings.TrimSpace(id)] = true
	}
	known := map[string]bool{}
	for _, e := range suite {
		known[e.ID] = true
	}
	for id := range selected {
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q; known: %s",
				id, strings.Join(SuiteIDs(), ", "))
		}
	}
	var out []Experiment
	for _, e := range suite {
		if selected[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}
