package diagnose

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
	"amrtools/internal/trace"
)

// spanDraw is the shape of one drawn span table: a small fleet running a few
// steps, with whichever pathologies and gaps the draw switches on.
type spanDraw struct {
	nodes, ranksPerNode, steps int
	throttled                  int     // node whose compute runs 3–5x slow; -1: none
	stallNode                  int     // node whose shm queue stalls on most sends; -1: none
	spikeProb                  float64 // chance a send wait is a multi-ms spike
	sends, probes              bool    // isend and probe_pre/probe_post spans present
	evict                      int     // leading spans each rank's ring has dropped
	shuffle                    bool    // rows in random order instead of rank-major
}

// drawSpans builds the span table of d from rng, in the recorder's schema.
func drawSpans(rng *rand.Rand, d spanDraw) *telemetry.Table {
	type span struct {
		rank, node, peer, step int
		kind                   string
		dur                    float64
	}
	ranks := d.nodes * d.ranksPerNode
	var all []span
	for rank := 0; rank < ranks; rank++ {
		node := rank / d.ranksPerNode
		emit := func(kind string, peer, step int, dur float64) {
			all = append(all, span{rank, node, peer, step, kind, dur})
		}
		first := len(all)
		probe := func(kind string) {
			slow := 1.0
			if node == d.throttled {
				slow = 4
			}
			// One probe span per node and kind, on its first rank — and now
			// and then a second, so that which one counts is compared too.
			if d.probes && (rank%d.ranksPerNode == 0 || rng.Intn(3) == 0) {
				emit(kind, -1, -1, slow*1e-3*(1+0.05*rng.Float64()))
			}
		}
		probe("probe_pre")
		emit("compute", -1, -1, 1e-3) // warm-up kernel before step 0: not a step's compute
		for step := 0; step < d.steps; step++ {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				dur := 1e-3 * (1 + 0.2*rng.Float64())
				if node == d.throttled && step >= d.steps/4 {
					dur *= 3 + 2*rng.Float64()
				}
				emit("compute", -1, step, dur)
			}
			for k := rng.Intn(6); k > 0 && d.sends; k-- {
				peer := rng.Intn(ranks + 2) // now and then a rank that left no span
				emit("isend", peer, step, 0)
				if node == d.stallNode && rng.Intn(10) > 0 || rng.Intn(40) == 0 {
					emit("shm_stall", peer, step, 1e-3*rng.Float64())
				}
			}
			if !d.sends && node == d.stallNode {
				for k := rng.Intn(8); k > 0; k-- {
					emit("shm_stall", -1, step, 4e-3*rng.Float64())
				}
			}
			for k := rng.Intn(3); k > 0; k-- {
				dur := 1e-7 * rng.Float64()
				if rng.Float64() < d.spikeProb {
					dur = 5e-4 + 20e-3*rng.Float64() // either side of the 1 ms floor
				}
				emit("send_wait", rng.Intn(ranks), step, dur)
			}
			emit("recv_wait", rng.Intn(ranks), step, 1e-4*rng.Float64())
			emit("barrier", -1, step, 1e-5)
		}
		if rng.Intn(4) > 0 { // a run that died early has no post probe
			probe("probe_post")
		}
		// The ring evicts oldest first; pinned probe spans aside, which the
		// draw does not model: a dropped probe is one more gap to agree on.
		all = append(all[:first], all[min(first+d.evict, len(all)):]...)
	}
	if d.shuffle {
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	}
	t := telemetry.NewTable(trace.Schema()...)
	for _, s := range all {
		t.Append(s.rank, s.node, s.kind, 0.0, s.dur, s.dur, s.peer, 0, 0, s.step, 0)
	}
	return t
}

// sameFindings fails the test unless got equals want field for field.
func sameFindings(t *testing.T, what string, got, want []Finding) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d findings, want %d\ngot  %+v\nwant %+v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: finding %d\ngot  %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

// TestDiagnoseMatchesOracle draws span tables — several nodes, ranks and
// steps with injected spikes, stalls and a throttled node, and the edge
// draws: one node only, no isend spans, no probe spans, rings that evicted
// their early steps, zero rows — and holds Diagnose through the query
// executor to the map-based detectors of oracle_test.go field for field,
// then a file-backed diagnosis at every chunking to the table-backed one.
func TestDiagnoseMatchesOracle(t *testing.T) {
	fired := map[string]int{}
	probed := 0
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := spanDraw{
			nodes: 2 + rng.Intn(4), ranksPerNode: 1 + rng.Intn(4), steps: 1 + rng.Intn(12),
			throttled: -1, stallNode: -1, sends: true, probes: true,
			shuffle: rng.Intn(4) == 0,
		}
		if rng.Intn(2) == 0 {
			d.throttled = rng.Intn(d.nodes)
		}
		if rng.Intn(2) == 0 {
			d.stallNode = rng.Intn(d.nodes)
		}
		if rng.Intn(2) == 0 {
			d.spikeProb = 0.3 * rng.Float64()
		}
		th := defaults
		edge := "full"
		switch seed % 8 {
		case 1:
			edge, d.nodes, d.throttled, d.stallNode = "one node", 1, 0, 0
		case 2:
			edge, d.sends, d.stallNode = "no isend", false, rng.Intn(d.nodes)
		case 3:
			edge, d.probes, d.throttled = "no probes", false, rng.Intn(d.nodes)
		case 4:
			edge, d.evict = "evicted", 20+rng.Intn(80)
		case 5:
			edge, d.nodes = "zero rows", 0
		case 6:
			// Thresholds that are not the defaults, one of them a literal
			// inside a query.
			edge = "options"
			th = thresholds{spikeFloor: 5e-4 + 3e-3*rng.Float64(), spikeFactor: 10, shmMinEvents: 3,
				shmSaturation: 0.3, shmMeanStall: 2e-3, throttleRatio: 1.5, sustainFrac: 0.4, probeRatio: 2}
		}
		t.Run(fmt.Sprintf("seed %d %s", seed, edge), func(t *testing.T) {
			spans := drawSpans(rng, d)
			want := oracleDiagnose(spans, th)
			got, err := diagnoseWith(spans, th)
			if err != nil {
				t.Fatal(err)
			}
			sameFindings(t, "table", got, want)
			for _, f := range want {
				fired[f.Detector]++
				if f.ProbePre > 0 && f.ProbePost > 0 && f.ProbeDrift != 0 {
					probed++
				}
			}

			for _, chunkRows := range []int{1, 7, 4096, max(1, spans.NumRows())} {
				var file bytes.Buffer
				if err := colfile.WriteTable(&file, spans, chunkRows); err != nil {
					t.Fatal(err)
				}
				r, err := colfile.OpenBytes(file.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				got, err := diagnoseWith(r, th)
				if err != nil {
					t.Fatal(err)
				}
				sameFindings(t, fmt.Sprintf("file in chunks of %d", chunkRows), got, want)
			}
		})
	}
	for _, det := range []string{"wait-spike", "shm-contention", "throttling"} {
		if fired[det] < 10 {
			t.Errorf("%d %s findings over all draws: the comparison is close to vacuous for that detector", fired[det], det)
		}
	}
	if probed == 0 {
		t.Error("no draw produced a throttling finding with both probe ratios and a drift")
	}
}

// TestDiagnoseRejectsOtherSchemas: a source that is not a span stream is an
// error naming the first column it lacks or mistypes, never a panic.
func TestDiagnoseRejectsOtherSchemas(t *testing.T) {
	for _, tc := range []struct {
		src  tql.Source
		want string
	}{
		{telemetry.NewTable(telemetry.StrCol("spec"), telemetry.IntCol("events")),
			`diagnose: not a span stream: no column "kind"`},
		{telemetry.NewTable(telemetry.StrCol("kind"), telemetry.FloatCol("rank")),
			`diagnose: not a span stream: column "rank" is float64, not int64`},
	} {
		if _, err := Diagnose(tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("Diagnose = %v, want %s", err, tc.want)
		}
	}
}
