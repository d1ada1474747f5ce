package driver

import (
	"fmt"
	"testing"

	"amrtools/internal/placement"
	"amrtools/internal/trace"
)

// TestTraceMemoryBoundedLongRun runs a long Fig-2-style run (throttled node,
// 60 steps) with a deliberately small ring cap: retained spans must stay at
// or under nranks x cap no matter how long the run, with the overflow counted
// in Dropped and the retained window holding the newest spans.
func TestTraceMemoryBoundedLongRun(t *testing.T) {
	const cap = 256
	cfg := smallConfig(placement.Baseline{}, 60, 3)
	cfg.Net.ThrottledNodes = map[int]float64{1: 4}
	cfg.Trace = &trace.Config{PerRankCap: cap}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Spans
	nranks := cfg.Net.Nodes * cfg.Net.RanksPerNode
	probeSpans := 2 * cfg.Net.Nodes // pre + post, outside the rings
	if rec.Len() > nranks*cap+probeSpans {
		t.Fatalf("retained %d spans, cap is %d", rec.Len(), nranks*cap+probeSpans)
	}
	if rec.Dropped() == 0 {
		t.Fatal("long run under a small cap dropped nothing — cap not exercised")
	}
	// Eviction is oldest-first: the retained window must reach the last step.
	tab := rec.Table()
	var maxStep int64 = -1
	for _, s := range tab.Ints("step") {
		if s > maxStep {
			maxStep = s
		}
	}
	if maxStep != int64(cfg.Steps-1) {
		t.Fatalf("newest retained step = %d, want %d", maxStep, cfg.Steps-1)
	}
	// Probe spans are exempt from eviction: even with every ring saturated,
	// both probes of every node survive (the pre-run probe is the oldest
	// span in the run — inside the rings it would be the first casualty,
	// and the post-run drift column would lose its baseline).
	kinds := tab.Strings("kind")
	pre, post := 0, 0
	for _, k := range kinds {
		switch k {
		case "probe_pre":
			pre++
		case "probe_post":
			post++
		}
	}
	if pre != cfg.Net.Nodes || post != cfg.Net.Nodes {
		t.Fatalf("saturated rings retained %d pre / %d post probe spans, want %d each",
			pre, post, cfg.Net.Nodes)
	}
}

// TestTraceArmingBoundsGrowth validates the §IV-C programmable-trigger
// workflow end to end on both engines: a recorder with a wait-spike arming
// condition retains nothing during the clean prefix of the run (bounded
// growth — only the fixed probe spans), then fills once the injected ACK
// stalls push a rank's per-step comm over the trigger threshold. Shards 0
// evaluates the condition at the sequential engine's row site, Shards 2 at
// the scheduler's flushSteps.
func TestTraceArmingBoundsGrowth(t *testing.T) {
	// Threshold between the clean fleet's worst per-step comm (~6 ms here)
	// and the 20 ms injected recovery stalls.
	const threshold = 0.015

	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clean := smallConfig(placement.Baseline{}, 20, 5)
			clean.Shards = shards
			clean.Trace = &trace.Config{PerRankCap: 4096, ArmOn: trace.WaitSpikeCondition(threshold)}
			res, err := Run(clean)
			if err != nil {
				t.Fatal(err)
			}
			probeSpans := 2 * clean.Net.Nodes // pre + post per node
			if res.Spans.Armed() {
				t.Fatal("clean run armed the wait-spike trigger")
			}
			if got := res.Spans.Len(); got != probeSpans {
				t.Fatalf("disarmed clean run retained %d spans, want only the %d probe spans", got, probeSpans)
			}
			if res.Spans.Suppressed() == 0 {
				t.Fatal("disarmed run suppressed nothing — emission sites not exercised")
			}

			faulty := smallConfig(placement.Baseline{}, 20, 5)
			faulty.Shards = shards
			faulty.Net.AckLossProb = 0.02
			faulty.Net.DrainQueue = false
			faulty.Net.AckRecoveryDelay = 20e-3
			faulty.Trace = &trace.Config{PerRankCap: 4096, ArmOn: trace.WaitSpikeCondition(threshold)}
			res, err = Run(faulty)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Spans.Armed() {
				t.Fatal("injected ACK stalls never armed the wait-spike trigger")
			}
			if res.Spans.Len() <= probeSpans {
				t.Fatal("armed recorder retained no spans")
			}
			if res.Spans.Suppressed() == 0 {
				t.Fatal("recorder was armed from the start — trigger did not gate collection")
			}
			// Nothing from before the arming step may be retained (other
			// than the out-of-loop probe spans at step -1).
			tab := res.Spans.Table()
			steps, kinds := tab.Ints("step"), tab.Strings("kind")
			armStep := int64(-1)
			for i, s := range steps {
				if kinds[i] == "probe_pre" || kinds[i] == "probe_post" {
					continue
				}
				if armStep == -1 || s < armStep {
					armStep = s
				}
			}
			if armStep < 1 {
				t.Fatalf("earliest retained span at step %d — buffers grew before the trigger fired", armStep)
			}
		})
	}
}

// TestTraceArmOnRequiresCollectSteps guards the validation: an arming
// condition without per-step telemetry can never fire.
func TestTraceArmOnRequiresCollectSteps(t *testing.T) {
	cfg := smallConfig(placement.Baseline{}, 5, 1)
	cfg.CollectSteps = false
	cfg.Trace = &trace.Config{ArmOn: trace.WaitSpikeCondition(1)}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected validation error for ArmOn without CollectSteps")
	}
}

// TestTraceDisabledByDefault pins the nil path: no Trace config, no recorder.
func TestTraceDisabledByDefault(t *testing.T) {
	res, err := Run(smallConfig(placement.Baseline{}, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans != nil {
		t.Fatal("recorder allocated without Config.Trace")
	}
}

// TestTracingDoesNotChangeTheRun: observing a run must not change it. Every
// table and scalar of a run is identical with the flight recorder on and off,
// on either engine — so a window rebuilt from spans is a window of the run
// that would have happened anyway.
func TestTracingDoesNotChangeTheRun(t *testing.T) {
	for _, shards := range []int{0, 2} {
		plain, err := Run(shardConfig(placement.CPLX{X: 50}, 12, 9, shards))
		if err != nil {
			t.Fatal(err)
		}
		cfg := shardConfig(placement.CPLX{X: 50}, 12, 9, shards)
		cfg.Trace = &trace.Config{}
		traced, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if traced.Spans.Len() == 0 {
			t.Fatalf("shards=%d: traced run recorded no spans", shards)
		}
		if traced.Steps.Render(0) != plain.Steps.Render(0) {
			t.Errorf("shards=%d: Steps table differs with tracing on", shards)
		}
		if traced.Waits.Render(0) != plain.Waits.Render(0) {
			t.Errorf("shards=%d: Waits table differs with tracing on", shards)
		}
		if traced.Makespan != plain.Makespan || traced.Events != plain.Events || traced.Census != plain.Census {
			t.Errorf("shards=%d: tracing changed the run: makespan %v vs %v, events %d vs %d, census %+v vs %+v",
				shards, traced.Makespan, plain.Makespan, traced.Events, plain.Events, traced.Census, plain.Census)
		}
	}
}
