// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner returns a telemetry.Table whose rows are
// the series the paper plots, and an error: a spec that fails, panics or
// times out stops its runner, and the error names the spec and the cause.
// The same code backs the `experiments` binary and EXPERIMENTS.md. Shapes
// (shapes.go) states each of the paper's shape claims once, as a predicate
// over those tables, with its status in this reproduction.
//
// Index (see DESIGN.md for the full mapping):
//
//	Fig1Top     – telemetry correlation before/after tuning
//	Fig1Bottom  – MPI_Wait spikes and the drain-queue mitigation
//	Fig2        – thermal throttling and health-check pruning
//	Fig3        – rankwise comm under successive tuning stages
//	Fig4        – critical-path structure and send-priority effect
//	TableI      – Sedov problem configurations and block growth
//	Fig6        – runtime/phase decomposition across policies and scales
//	Fig7a       – commbench: round latency vs locality
//	Commbench   – commbench for any policy list (cmd/commbench)
//	Fig7b       – scalebench: makespan vs X across cost distributions
//	Fig7c       – placement computation overhead vs scale
//	LPTvsILP    – LPT against the exact branch-and-bound reference
//	NeighborhoodCollectives – rank-pair aggregation vs raw P2P (§VIII)
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"amrtools/internal/colfile"
	"amrtools/internal/driver"
	"amrtools/internal/harness"
	"amrtools/internal/metrics"
	"amrtools/internal/physics"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
	"amrtools/internal/trace"
)

// Options selects experiment scale. Quick mode shrinks rank counts and step
// counts so the whole suite runs in seconds (used by tests and CI);
// full mode reproduces the paper's scales. The runtime invariant audits
// (internal/check) are not an option: check.Force turns them on in every
// world the experiments launch, driver runs included (cmd/experiments
// -paranoid sets it), and the differential experiment always runs
// paranoid.
type Options struct {
	Quick bool
	Seed  uint64
	// Exec carries the campaign-execution knobs — worker count (-j),
	// per-run timeout, progress callback, the campaign ledger
	// (Exec.Recorder) — into every runner's harness plan. The zero value
	// runs plans on GOMAXPROCS workers with no timeout and no recording.
	Exec harness.Exec
	// TraceDir, when non-empty, turns on the flight recorder
	// (internal/trace) in every driver run and writes each run's span
	// stream as `<TraceDir>/<campaign>--<id>.col` — a colfile readable by
	// cmd/amrquery (-diagnose, -perfetto). Span colfiles derive from the
	// deterministic simulation only, so they are bit-identical across
	// Exec.Workers settings.
	TraceDir string
	// MetricsDir, when non-empty, also writes each run's full metric
	// snapshot as `<MetricsDir>/<campaign>--<id>.col` (amrquery-compatible).
	// Setting MetricsDir alone enables collection without a live aggregate.
	MetricsDir string
	// Metrics, when non-nil, turns on the two-plane metrics registry
	// (internal/metrics) in every driver run and merges each completed
	// run's registry into this campaign aggregate — the merged series
	// behind the live /metrics endpoint. Merging happens in run-completion
	// order, so the aggregate is exposition-only; per-run sim-plane
	// snapshots remain bit-identical across -j.
	Metrics *metrics.Campaign
}

// metricsOn reports whether driver runs should build a metrics registry.
func (o Options) metricsOn() bool {
	return o.Metrics != nil || o.MetricsDir != ""
}

// NondetCols names the host-plane columns of the harness recorder's and Fig
// 7c's schemas, the two tables with host readings. Identity checks compare
// Table.Sim views; the list is kept for the bench module's digest mask
// only, and goes once that mask reads the plane.
var NondetCols = append(harness.NewRecorder().Table().HostCols(), telemetry.NewTable(fig7cSchema...).HostCols()...)

// SedovScale is one Table I configuration.
type SedovScale struct {
	Ranks    int
	RootDims [3]int
	// MeshDesc is the paper's cell-count description (blocks are 16³).
	MeshDesc string
}

// TableIScales are the paper's four Sedov configurations: mesh sizes chosen
// so the run starts with exactly one 16³ block per rank.
var TableIScales = []SedovScale{
	{Ranks: 512, RootDims: [3]int{8, 8, 8}, MeshDesc: "128^3"},
	{Ranks: 1024, RootDims: [3]int{8, 8, 16}, MeshDesc: "128^2x256"},
	{Ranks: 2048, RootDims: [3]int{8, 16, 16}, MeshDesc: "128x256^2"},
	{Ranks: 4096, RootDims: [3]int{16, 16, 16}, MeshDesc: "256^3"},
}

// QuickScale is the shrunken configuration used by tests, CI and bench/.
var QuickScale = SedovScale{Ranks: 128, RootDims: [3]int{4, 4, 8}, MeshDesc: "64^2x128"}

// scales returns the Sedov scales to run under opts.
func (o Options) scales() []SedovScale {
	if o.Quick {
		return []SedovScale{QuickScale}
	}
	return TableIScales
}

// steps returns the timestep count: the paper runs 30k–53k steps over weeks
// of CPU; we keep the identical per-step structure and refinement cadence
// (LB every 5 steps) and shrink the repetition (see DESIGN.md §1).
func (o Options) steps() int {
	if o.Quick {
		return 25
	}
	return 60
}

// sedovConfig builds the standard tuned-environment Sedov run.
func sedovConfig(sc SedovScale, pol placement.Policy, steps int, seed uint64) driver.Config {
	return driver.DefaultConfig(sc.RootDims, 2, steps, pol, seed)
}

// sedovSpec wraps one driver run as a harness spec, reporting the run's
// DES event count to the campaign metrics. When the options carry a
// TraceDir, the run gets the flight recorder (runCampaign dumps the spans).
func (o Options) sedovSpec(id string, cfg driver.Config) harness.Spec[*driver.Result] {
	if o.TraceDir != "" && cfg.Trace == nil {
		cfg.Trace = &trace.Config{}
	}
	if o.metricsOn() && cfg.Metrics == nil {
		cfg.Metrics = &metrics.Config{}
	}
	return harness.Spec[*driver.Result]{
		ID: id,
		Run: func(m *harness.Meter) (*driver.Result, error) {
			run := cfg
			// Honor the harness timeout: a timed-out spec's goroutine
			// stops at the next engine interrupt poll instead of
			// simulating on to completion after being abandoned.
			run.Interrupt = m.Aborted
			res, err := driver.Run(run)
			if err != nil {
				return nil, err
			}
			m.AddEvents(res.Events)
			m.SetRankBytes(int64(res.MaxRankMetaBytes))
			if o.Metrics != nil && res.Metrics != nil {
				o.Metrics.AddRun(res.Metrics.Reg)
			}
			return res, nil
		},
	}
}

// runCampaign fans the specs out through the harness and returns their
// results in spec order, or the first failure, which names its spec.
// With Options.TraceDir set, every traced run's spans are streamed to
// `<TraceDir>/<campaign>--<id>.col` (the span table is never built).
func runCampaign(opts Options, campaign string, specs []harness.Spec[*driver.Result]) ([]*driver.Result, error) {
	results, err := harness.Values(harness.Run(opts.Exec, campaign, specs))
	if err != nil {
		return nil, err
	}
	if opts.TraceDir != "" {
		err := dumpFiles(opts.TraceDir, campaign, specs, results, func(r *driver.Result) func(io.Writer) error {
			if r.Spans == nil {
				return nil
			}
			return func(w io.Writer) error { return r.Spans.WriteTo(w, telemetry.ChunkRows) }
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: span dump: %w", err)
		}
	}
	if opts.MetricsDir != "" {
		// The full snapshot, both planes.
		err := dumpFiles(opts.MetricsDir, campaign, specs, results, func(r *driver.Result) func(io.Writer) error {
			if r.Metrics == nil {
				return nil
			}
			return func(w io.Writer) error { return colfile.WriteTable(w, r.Metrics.Reg.Snapshot(), telemetry.ChunkRows) }
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: metrics dump: %w", err)
		}
	}
	return results, nil
}

// dumpFiles writes one colfile per result, named `<campaign>--<id>.col`
// under dir ("/" in spec ids becomes "_"), through the writer pick returns
// for it (nil = skip the run).
func dumpFiles(dir, campaign string, specs []harness.Spec[*driver.Result], results []*driver.Result,
	pick func(*driver.Result) func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, res := range results {
		if res == nil {
			continue
		}
		write := pick(res)
		if write == nil {
			continue
		}
		name := campaign + "--" + strings.ReplaceAll(specs[i].ID, "/", "_") + ".col"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// unitCosts returns n unit block costs (the framework default).
func unitCosts(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// coolingProblem builds the galaxy-cooling proxy sized to a Sedov scale.
func coolingProblem(sc SedovScale, seed uint64) physics.Problem {
	return physics.NewCooling(sc.RootDims, 4, seed)
}
