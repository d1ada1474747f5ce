package driver

import (
	"errors"
	"reflect"
	"testing"

	"amrtools/internal/critpath"
	"amrtools/internal/placement"
	"amrtools/internal/sim"
	"amrtools/internal/trace"
)

// shardConfig is smallConfig with full telemetry collection and the
// requested shard count.
func shardConfig(pol placement.Policy, steps int, seed uint64, shards int) Config {
	cfg := smallConfig(pol, steps, seed)
	cfg.CollectSteps = true
	cfg.CollectWaits = true
	cfg.Shards = shards
	return cfg
}

// TestShardCountIdentity: the whole point of the conservative scheduler —
// every output table and scalar must be byte-identical for any shard count
// (and forked windows must not perturb it).
func TestShardCountIdentity(t *testing.T) {
	type snap struct {
		steps, waits       string
		makespan           float64
		events             int64
		initial, final, lb int
		migrations         int
		history            []int
	}
	run := func(shards int) snap {
		res, err := Run(shardConfig(placement.LPT{}, 12, 7, shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return snap{
			steps:      res.Steps.Render(0),
			waits:      res.Waits.Render(0),
			makespan:   res.Makespan,
			events:     res.Events,
			initial:    res.InitialBlocks,
			final:      res.FinalBlocks,
			lb:         res.LBSteps,
			migrations: res.Migrations,
			history:    res.BlockHistory,
		}
	}
	base := run(1)
	if base.makespan <= 0 || base.events <= 0 {
		t.Fatalf("degenerate base run: %+v", base)
	}
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if !reflect.DeepEqual(got, base) {
			if got.steps != base.steps {
				t.Errorf("shards=%d: Steps table differs from shards=1", shards)
			}
			if got.waits != base.waits {
				t.Errorf("shards=%d: Waits table differs from shards=1", shards)
			}
			t.Fatalf("shards=%d result diverged: makespan %v vs %v, events %d vs %d, blocks %d/%d vs %d/%d",
				shards, got.makespan, base.makespan, got.events, base.events,
				got.final, got.lb, base.final, base.lb)
		}
	}
}

// TestShardedMatchesSequentialStructure: the legacy single-engine path and
// the sharded path draw from differently-split RNG streams, so timing
// diverges — but refinement is driven by the deterministic workload
// generator, so the mesh trajectory must be identical.
func TestShardedMatchesSequentialStructure(t *testing.T) {
	seq, err := Run(shardConfig(placement.Baseline{}, 12, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(shardConfig(placement.Baseline{}, 12, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if seq.InitialBlocks != par.InitialBlocks || seq.FinalBlocks != par.FinalBlocks {
		t.Fatalf("block counts: sequential %d→%d, sharded %d→%d",
			seq.InitialBlocks, seq.FinalBlocks, par.InitialBlocks, par.FinalBlocks)
	}
	if seq.LBSteps != par.LBSteps {
		t.Fatalf("lb steps: sequential %d, sharded %d", seq.LBSteps, par.LBSteps)
	}
	if !reflect.DeepEqual(seq.BlockHistory, par.BlockHistory) {
		t.Fatalf("block history: sequential %v, sharded %v", seq.BlockHistory, par.BlockHistory)
	}
	if par.Makespan <= 0 || par.Events <= 0 {
		t.Fatalf("degenerate sharded run: makespan %v, events %d", par.Makespan, par.Events)
	}
}

// TestShardClampAndTraceFallback: shard counts beyond the node count clamp
// (still sharded), and turning the flight recorder on does not fall back to
// the legacy engine — the traced sharded run is the untraced sharded run,
// not the sequential one, and its window is analysable.
func TestShardClampAndTraceFallback(t *testing.T) {
	res, err := Run(shardConfig(placement.LPT{}, 8, 5, 64)) // only 4 nodes
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("clamped sharded run produced no work")
	}
	sharded := res.Makespan

	cfg := shardConfig(placement.LPT{}, 8, 5, 2)
	cfg.Trace = &trace.Config{}
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Run(shardConfig(placement.LPT{}, 8, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != sharded || res.Makespan == legacy.Makespan {
		t.Fatalf("traced Shards=2 makespan %v: want the sharded %v, not the legacy %v",
			res.Makespan, sharded, legacy.Makespan)
	}
	if _, err := critpath.FromSpans(res.Spans.Table(), 4); err != nil {
		t.Fatal(err)
	}
}

// TestShardedInterrupt: a pre-aborted Interrupt hook must stop both engine
// modes promptly with an error wrapping sim.ErrInterrupted, with no panic
// escaping and no partial-result success.
func TestShardedInterrupt(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := shardConfig(placement.Baseline{}, 12, 1, shards)
		cfg.Interrupt = func() bool { return true }
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("shards=%d: interrupted run reported success", shards)
		}
		if !errors.Is(err, sim.ErrInterrupted) {
			t.Fatalf("shards=%d: error %v does not wrap sim.ErrInterrupted", shards, err)
		}
	}
}
