package driver

import (
	"runtime"
	"strings"
	"testing"

	"amrtools/internal/metrics"
	"amrtools/internal/placement"
)

// metricsConfig is shardConfig with the two-plane metrics registry on.
func metricsConfig(pol placement.Policy, steps int, seed uint64, shards int) Config {
	cfg := shardConfig(pol, steps, seed, shards)
	cfg.Metrics = &metrics.Config{}
	return cfg
}

// TestMetricsShardIdentity: the simulated-plane snapshot is part of the
// reproduction surface — it must be byte-identical for shard counts 1, 2,
// and 4, exactly like the result tables. (Host-plane metrics legitimately
// differ across shard counts; SimSnapshot excludes them by construction.)
func TestMetricsShardIdentity(t *testing.T) {
	run := func(shards int) string {
		res, err := Run(metricsConfig(placement.LPT{}, 12, 7, shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Metrics == nil {
			t.Fatalf("shards=%d: Config.Metrics set but Result.Metrics nil", shards)
		}
		return res.Metrics.Reg.SimSnapshot().Render(0)
	}
	base := run(1)
	if !strings.Contains(base, "sim_mpi_p2p_msgs_total") {
		t.Fatalf("sim snapshot missing MPI series:\n%s", base)
	}
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != base {
			t.Errorf("shards=%d: sim-plane snapshot diverged from shards=1\n--- base ---\n%s\n--- got ---\n%s",
				shards, base, got)
		}
	}
}

// TestMetricsPopulated: a metered run must actually move the core series —
// the instrumentation sites fire, the phase attribution accumulates, and
// the sharded scheduler reports host-plane window structure.
func TestMetricsPopulated(t *testing.T) {
	res, err := Run(metricsConfig(placement.LPT{}, 12, 7, 2))
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Metrics
	if ms.MPI.P2PMsgs.Total() == 0 {
		t.Error("no point-to-point messages counted")
	}
	if ms.MPI.P2PBytes.Total() == 0 {
		t.Error("no point-to-point bytes counted")
	}
	if ms.MPI.Compute.Total() <= 0 {
		t.Error("no compute phase time attributed")
	}
	if ms.Drv.Epochs.Total() == 0 {
		t.Error("no plan epochs counted")
	}
	if ms.Drv.Steps.Total() == 0 {
		t.Error("no timesteps counted")
	}
	if ms.Sched.Windows.Value() == 0 {
		t.Error("sharded run executed no windows")
	}
	if ms.Sched.WindowEvents.Count() == 0 {
		t.Error("no per-window event observations")
	}
}

// TestOnePNeverForks: on one P a fork can only add hand-offs, so a two-shard
// run must execute every window inline there — and, on two, fork some — with
// every table and the sim-plane snapshot equal either way; the critical path
// (busiest shard per window) does not depend on how the windows ran.
func TestOnePNeverForks(t *testing.T) {
	run := func(procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := Run(metricsConfig(placement.LPT{}, 12, 7, 2))
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return res
	}
	one, two := run(1), run(2)
	if n := one.Metrics.Sched.ParallelWindows.Value(); n != 0 {
		t.Errorf("GOMAXPROCS=1: %d windows forked", n)
	}
	if n := one.Metrics.Sched.ParallelEvents.Value(); n != 0 {
		t.Errorf("GOMAXPROCS=1: %d events ran in forked windows", n)
	}
	sched := two.Metrics.Sched
	if sched.ParallelWindows.Value() == 0 || sched.ParallelEvents.Value() == 0 {
		t.Errorf("GOMAXPROCS=2: no window forked (%d windows, %d events)",
			sched.ParallelWindows.Value(), sched.ParallelEvents.Value())
	}
	if crit := sched.CriticalEvents.Value(); crit <= 0 || crit > two.Events || sched.ParallelEvents.Value() > two.Events {
		t.Errorf("GOMAXPROCS=2: critical path %d, forked %d of %d events", crit, sched.ParallelEvents.Value(), two.Events)
	}
	if c1, c2 := one.Metrics.Sched.CriticalEvents.Value(), sched.CriticalEvents.Value(); c1 != c2 {
		t.Errorf("critical path depends on how windows ran: %d on one P, %d on two", c1, c2)
	}
	if one.Steps.Render(0) != two.Steps.Render(0) || one.Waits.Render(0) != two.Waits.Render(0) ||
		one.Makespan != two.Makespan || one.Events != two.Events {
		t.Errorf("tables differ between GOMAXPROCS 1 and 2: makespan %v vs %v, events %d vs %d",
			one.Makespan, two.Makespan, one.Events, two.Events)
	}
	if one.Metrics.Reg.SimSnapshot().Render(0) != two.Metrics.Reg.SimSnapshot().Render(0) {
		t.Error("sim-plane snapshot differs between GOMAXPROCS 1 and 2")
	}
}

// TestMetricsAreViewsOfTheRun: the MPI and fabric lanes are the run's only
// accounting, so publishing them must change nothing (same rows, same
// scalars, bit for bit), the phase means must be the published phase totals
// divided by the rank count, and the driver's instruments must equal the
// Result fields they are filled from.
func TestMetricsAreViewsOfTheRun(t *testing.T) {
	for _, shards := range []int{0, 2} {
		plain, err := Run(shardConfig(placement.LPT{}, 12, 7, shards))
		if err != nil {
			t.Fatal(err)
		}
		cfg := metricsConfig(placement.LPT{}, 12, 7, shards)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps.Render(0) != plain.Steps.Render(0) {
			t.Errorf("shards=%d: per-step rows differ with Config.Metrics set", shards)
		}
		if res.Phases != plain.Phases || res.Census != plain.Census ||
			res.Makespan != plain.Makespan || res.Events != plain.Events {
			t.Errorf("shards=%d: publishing metrics changed the run: (%+v, %+v, %v, %d) vs (%+v, %+v, %v, %d)", shards,
				res.Phases, res.Census, res.Makespan, res.Events,
				plain.Phases, plain.Census, plain.Makespan, plain.Events)
		}

		snap := res.Metrics.Reg.SimSnapshot()
		series := map[string]float64{}
		for row, name := range snap.Strings("metric") {
			series[name] = snap.Floats("value")[row]
		}
		nranks := cfg.Net.Nodes * cfg.Net.RanksPerNode
		for name, phase := range map[string]float64{
			"sim_phase_compute_seconds_total":   res.Phases.Compute,
			"sim_phase_commwait_seconds_total":  res.Phases.Comm,
			"sim_phase_sync_seconds_total":      res.Phases.Sync,
			"sim_phase_rebalance_seconds_total": res.Phases.Rebalance,
		} {
			if want := series[name] / float64(nranks); phase != want || phase <= 0 {
				t.Errorf("shards=%d: Phases has %v where %s / %d ranks = %v", shards, phase, name, nranks, want)
			}
		}
		if res.Migrations == 0 || res.Deltas.Installs == 0 {
			t.Fatalf("shards=%d: run migrated nothing; the driver series are untested", shards)
		}
		blockBytes := cfg.BlockCells * cfg.BlockCells * cfg.BlockCells * cfg.NVars * 8
		for name, want := range map[string]int{
			"sim_driver_epochs_total":          len(res.BlockHistory),
			"sim_driver_migrated_blocks_total": res.Migrations,
			"sim_driver_migrated_bytes_total":  res.Migrations * blockBytes,
			"sim_driver_dir_handoffs_total":    res.Deltas.Handoffs,
			"sim_driver_dir_installs_total":    res.Deltas.Installs,
			"sim_driver_steps_total":           cfg.Steps * nranks,
			"sim_mpi_p2p_msgs_total":           int(res.Census.LocalMsgs + res.Census.RemoteMsgs),
			"sim_mpi_p2p_msgs_recvd_total":     int(res.Census.LocalMsgs + res.Census.RemoteMsgs),
			"sim_net_ack_stalls_total":         int(res.Census.AckStalls),
			"sim_net_shm_stalls_total":         int(res.Census.ShmContentions),
		} {
			if got, ok := series[name]; !ok || got != float64(want) {
				t.Errorf("shards=%d: %s = %v (present %v), the Result says %d", shards, name, got, ok, want)
			}
		}
	}
}

// TestMetricsDisabledPath: the default config must not publish a registry.
func TestMetricsDisabledPath(t *testing.T) {
	res, err := Run(shardConfig(placement.LPT{}, 8, 7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Fatal("metrics collected without Config.Metrics")
	}
}
