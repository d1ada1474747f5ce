package diagnose_test

// Detector validation against fault-injection ground truth (the acceptance
// protocol of the paper's §IV): each test injects a fault through the simnet
// configuration, runs the full driver with the flight recorder on, and then
// hands the detectors ONLY the span table — never the injection config. The
// assertions compare the detector output against the injected node/rank set
// (or, for wait spikes, against the driver's independently collected
// wait-event table), plus a clean control run that must produce no findings.

import (
	"bytes"
	"testing"

	"amrtools/internal/driver"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/telemetry"
	"amrtools/internal/trace"
	"amrtools/internal/trace/diagnose"
)

// tracedRun executes a 4-node × 16-rank Sedov run with the flight recorder
// enabled, after applying mut to the (tuned) network config.
func tracedRun(t *testing.T, seed uint64, mut func(*simnet.Config)) *driver.Result {
	t.Helper()
	cfg := driver.DefaultConfig([3]int{4, 4, 4}, 2, 20, placement.Baseline{}, seed)
	cfg.Net = simnet.Tuned(4, 16, seed)
	if mut != nil {
		mut(&cfg.Net)
	}
	cfg.Trace = &trace.Config{PerRankCap: 8192}
	cfg.CollectWaits = true
	res, err := driver.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans == nil {
		t.Fatal("no span recorder on traced run")
	}
	return res
}

// mustDiagnose runs the detectors at their default thresholds.
func mustDiagnose(t *testing.T, spans *telemetry.Table) []diagnose.Finding {
	t.Helper()
	fs, err := diagnose.Diagnose(spans)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func byDetector(fs []diagnose.Finding) map[string][]diagnose.Finding {
	out := map[string][]diagnose.Finding{}
	for _, f := range fs {
		out[f.Detector] = append(out[f.Detector], f)
	}
	return out
}

func TestControlNoFalsePositives(t *testing.T) {
	res := tracedRun(t, 5, nil)
	fs := mustDiagnose(t, res.Spans.Table())
	if len(fs) != 0 {
		t.Fatalf("clean tuned control produced %d findings: %+v", len(fs), fs)
	}
}

func TestThrottlingDetection(t *testing.T) {
	injected := map[int]float64{1: 4} // ground truth the detector never sees
	res := tracedRun(t, 5, func(n *simnet.Config) { n.ThrottledNodes = injected })
	fs := byDetector(mustDiagnose(t, res.Spans.Table()))

	got := fs["throttling"]
	if len(got) != len(injected) {
		t.Fatalf("throttling findings = %+v, want exactly the %d injected node(s)", got, len(injected))
	}
	for _, f := range got {
		if _, ok := injected[f.Node]; !ok {
			t.Fatalf("flagged healthy node %d", f.Node)
		}
		if f.Severity < 3 || f.Severity > 5 {
			t.Fatalf("node %d inflation %.2f, injected factor 4", f.Node, f.Severity)
		}
		if !f.ProbeConfirmed {
			t.Fatalf("health probe did not confirm throttled node %d: %+v", f.Node, f)
		}
		if f.ProbePre < 1.5 || f.ProbePost < 1.5 {
			t.Fatalf("probe ratios %.2f/%.2f too low for a 4x throttled node", f.ProbePre, f.ProbePost)
		}
	}
	// The injection must not bleed into the other detectors.
	if len(fs["wait-spike"]) != 0 || len(fs["shm-contention"]) != 0 {
		t.Fatalf("throttling injection triggered unrelated detectors: %+v", fs)
	}
}

func TestShmContentionDetection(t *testing.T) {
	// The §IV-B mis-tuning: queue depth 8 instead of 1024 — every node's
	// shared-memory path saturates.
	res := tracedRun(t, 5, func(n *simnet.Config) {
		n.ShmQueueDepth = 8
		n.ShmContentionPenalty = 5e-6
	})
	fs := byDetector(mustDiagnose(t, res.Spans.Table()))

	got := map[int]bool{}
	for _, f := range fs["shm-contention"] {
		got[f.Node] = true
		if f.Events < 1000 {
			t.Fatalf("node %d flagged on only %d stalls — saturation should show thousands", f.Node, f.Events)
		}
	}
	for node := 0; node < 4; node++ {
		if !got[node] {
			t.Fatalf("undersized queue on node %d not flagged (got %v)", node, got)
		}
	}
	if len(fs["throttling"]) != 0 {
		t.Fatalf("shm injection triggered throttling detector: %+v", fs["throttling"])
	}
}

func TestWaitSpikeDetection(t *testing.T) {
	// Missing-ACK recovery path exposed (no drain queue), stretched to 20 ms
	// so stalls survive until the end-of-step WaitAll.
	res := tracedRun(t, 5, func(n *simnet.Config) {
		n.AckLossProb = 0.02
		n.DrainQueue = false
		n.AckRecoveryDelay = 20e-3
	})
	fs := byDetector(mustDiagnose(t, res.Spans.Table()))

	// Ground truth from the driver's independent wait-event table: ranks that
	// blocked >= 1 ms in a send wait. The detector sees only the span table.
	want := map[int]bool{}
	ks, ds, rs := res.Waits.Strings("kind"), res.Waits.Floats("dur"), res.Waits.Ints("rank")
	for i := 0; i < res.Waits.NumRows(); i++ {
		if ks[i] == "send" && ds[i] >= 1e-3 {
			want[int(rs[i])] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("injection produced no ground-truth send spikes; test is vacuous")
	}
	got := map[int]bool{}
	for _, f := range fs["wait-spike"] {
		got[f.Rank] = true
		if f.Severity < 1e-3 {
			t.Fatalf("finding severity %.4g below the spike floor", f.Severity)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("flagged ranks %v, ground truth %v", got, want)
	}
	for r := range want {
		if !got[r] {
			t.Fatalf("ground-truth spiking rank %d not flagged (got %v)", r, got)
		}
	}
	if len(fs["shm-contention"]) != 0 || len(fs["throttling"]) != 0 {
		t.Fatalf("ack injection triggered unrelated detectors: %+v", fs)
	}
}

func TestReportTableProbeDrift(t *testing.T) {
	res := tracedRun(t, 7, func(n *simnet.Config) { n.ThrottledNodes = map[int]float64{2: 4} })
	rep := diagnose.ReportTable(mustDiagnose(t, res.Spans.Table()))
	for _, col := range []string{"detector", "node", "rank", "first_step", "last_step",
		"events", "severity", "probe_pre", "probe_post", "probe_drift", "probe_confirmed", "detail"} {
		if !rep.HasCol(col) {
			t.Fatalf("report table missing column %q", col)
		}
	}
	if rep.NumRows() != 1 {
		t.Fatalf("report rows = %d, want 1 (the injected node)", rep.NumRows())
	}
	if node := rep.Ints("node")[0]; node != 2 {
		t.Fatalf("report node = %d, want 2", node)
	}
	if conf := rep.Ints("probe_confirmed")[0]; conf != 1 {
		t.Fatal("probe_confirmed not set for a 4x throttled node")
	}
	pre, post := rep.Floats("probe_pre")[0], rep.Floats("probe_post")[0]
	drift := rep.Floats("probe_drift")[0]
	if pre <= 1.5 || post <= 1.5 {
		t.Fatalf("probe ratios %.2f/%.2f too low", pre, post)
	}
	// Constant-factor injection: pre and post agree, so drift is small.
	if wantDrift := (post - pre) / pre; drift != wantDrift {
		t.Fatalf("probe_drift = %g, want %g", drift, wantDrift)
	}
}

func TestReportTableEmpty(t *testing.T) {
	rep := diagnose.ReportTable(nil)
	if rep.NumRows() != 0 {
		t.Fatalf("empty report has %d rows", rep.NumRows())
	}
	if !rep.HasCol("probe_drift") {
		t.Fatal("empty report missing schema")
	}
}

// TestReportIsDeterministic holds the report to one byte string per span
// table: the detectors fold key-ordered query results and keep no map, so
// repeated diagnoses must agree byte for byte — which an unordered walk
// feeding an ordered sink would break. The table carries all three faults at
// once so every detector has findings to order.
func TestReportIsDeterministic(t *testing.T) {
	res := tracedRun(t, 5, func(n *simnet.Config) {
		n.ThrottledNodes = map[int]float64{1: 4}
		n.ShmQueueDepth = 8
		n.ShmContentionPenalty = 5e-6
		n.AckLossProb = 0.02
		n.DrainQueue = false
		n.AckRecoveryDelay = 20e-3
	})
	spans := res.Spans.Table()
	report := func() []byte {
		var buf bytes.Buffer
		if err := diagnose.ReportTable(mustDiagnose(t, spans)).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fs := byDetector(mustDiagnose(t, spans))
	for _, det := range []string{"wait-spike", "shm-contention", "throttling"} {
		if len(fs[det]) == 0 {
			t.Fatalf("the combined injection produced no %s finding; the test is vacuous for that detector", det)
		}
	}
	first := report()
	for i := 1; i < 20; i++ {
		if got := report(); !bytes.Equal(got, first) {
			t.Fatalf("diagnosis %d of the same span table differs:\n%s\nfirst:\n%s", i, got, first)
		}
	}
}
