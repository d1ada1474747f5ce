// Package diagnose turns a flight-recorder span stream into structured
// findings that reproduce the paper's §IV diagnoses from telemetry alone:
//
//   - wait-spike: rank-relative MPI_Wait outliers per step — the
//     missing-ACK sender stalls of Fig 1b;
//   - shm-contention: nodes losing time to a full shared-memory queue —
//     the undersized-queue pathology of §IV-B;
//   - throttling: nodes with sustained compute-time inflation against
//     the fleet median, cross-checked against the pre/post health probes —
//     the thermal throttling of Fig 2 / §IV-A.
//
// A detector is a few TQL queries over the span table (trace.Schema layout)
// and a fold over their results — the paper's Lesson 4, queryable columnar
// telemetry, applied to the tool itself. The detectors never see the
// fault-injection configuration, which is what lets tests validate them
// against ground truth the way the paper validated its pipeline against
// known hardware faults.
package diagnose

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"amrtools/internal/stats"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
)

// thresholds are the detector cuts. Diagnose always runs at defaults; the
// differential test draws others through diagnoseWith.
type thresholds struct {
	// spikeFloor is the minimum absolute send-wait duration (seconds)
	// counted as a spike. A healthy send request completes in ~SendOverhead
	// (sub-microsecond), so 1 ms matches the "spikes > 1 ms" cut of Fig 1b.
	spikeFloor float64
	// spikeFactor additionally requires a spike to exceed this multiple of
	// the step's fleet-median send-wait (per-rank totals, zero for ranks
	// that never blocked), keeping the detector rank-relative when the
	// whole fleet is slow without letting a handful of spikes set their own
	// baseline.
	spikeFactor float64
	// shmMinEvents gates shm-contention findings on a minimum number of
	// queue-full stalls per node. shmSaturation is the stall rate (stalls
	// per local send) above which the node's queue counts as undersized: a
	// mis-tuned queue saturates (rate near 1), while a healthy queue only
	// stalls at burst peaks. When the span stream carries no send posts to
	// compute a rate from, shmMeanStall (mean seconds per stall) is the
	// fallback gate.
	shmMinEvents  int
	shmSaturation float64
	shmMeanStall  float64
	// throttleRatio is the per-step node-compute inflation over the fleet
	// median that marks a step as throttled; sustainFrac is the fraction of
	// observed steps that must be throttled for the node to be flagged
	// (sustained inflation, not a jitter excursion).
	throttleRatio float64
	sustainFrac   float64
	// probeRatio is the health-probe kernel-time ratio (vs the
	// lower-quartile reference, as in internal/health) above which a probe
	// confirms a throttling finding.
	probeRatio float64
}

// defaults are the thresholds Diagnose runs at.
var defaults = thresholds{
	spikeFloor:    1e-3,
	spikeFactor:   50,
	shmMinEvents:  8,
	shmSaturation: 0.5,
	shmMeanStall:  2e-3,
	throttleRatio: 2,
	sustainFrac:   0.6,
	probeRatio:    1.5,
}

// Finding is one detector result: a rank or node implicated by the span
// stream, with the step window and severity of the anomaly.
type Finding struct {
	// Detector is "wait-spike", "shm-contention", or "throttling".
	Detector string
	// Node is the implicated node. Rank is -1 for node-level findings.
	Node int
	Rank int
	// FirstStep and LastStep bracket the steps the anomaly was observed in.
	FirstStep, LastStep int
	// Events is the number of spans implicated.
	Events int
	// Severity is detector-specific: worst spike duration in seconds
	// (wait-spike), total queue-full stall seconds (shm-contention), or
	// mean compute inflation vs the fleet median (throttling).
	Severity float64
	// ProbePre and ProbePost are the node's health-probe kernel-time ratios
	// against the lower-quartile reference (0 when no probe spans exist);
	// ProbeDrift is (post-pre)/pre, the §IV-A pre/post drift signal.
	ProbePre, ProbePost, ProbeDrift float64
	// ProbeConfirmed reports whether the health probe independently flags
	// the node (ratio above the probe threshold, 1.5).
	ProbeConfirmed bool
	// Detail is a human-readable summary.
	Detail string
}

// The detector queries, over the span table "t" — the whole of what the
// detectors read. Each runs through the one TQL executor (paste any of them
// after `amrquery -file F`), so a file-backed diagnosis decodes only the columns
// a query names, one chunk at a time, and holds groups, never spans. Grouped
// results arrive in key order, which is what makes every fold below ordered.
const (
	// Every rank with a span, and its node (a rank lives on one node): the
	// fleet wait-spike counts, the peers shm-contention places.
	qRanks = `SELECT rank, node FROM t GROUP BY rank, node`
	// wait-spike: the candidate spans (%s: the spike floor), then every
	// rank's send-wait total per step, the baseline they are cut against.
	qSpikes   = `SELECT rank, node, step, dur FROM t WHERE kind = 'send_wait' AND dur >= %s`
	qSendWait = `SELECT step, rank, sum(dur) FROM t WHERE kind = 'send_wait' GROUP BY step, rank`
	// shm-contention: stalls per node, then send posts per (node, peer).
	qStalls = `SELECT node, count(*), sum(dur), min(step), max(step) FROM t WHERE kind = 'shm_stall' GROUP BY node`
	qSends  = `SELECT node, peer, count(*) FROM t WHERE kind = 'isend' GROUP BY node, peer`
	// throttling: compute seconds per (step, node), then the probe spans.
	qCompute = `SELECT step, node, sum(dur) FROM t WHERE kind = 'compute' AND step >= 0 GROUP BY step, node`
	qProbes  = `SELECT kind, node, dur FROM t WHERE kind = 'probe_pre' OR kind = 'probe_post'`
)

// spanCols are the span columns the queries read, typed as trace.Schema
// types them.
var spanCols = []telemetry.ColSpec{
	telemetry.StrCol("kind"), telemetry.IntCol("rank"), telemetry.IntCol("node"),
	telemetry.IntCol("step"), telemetry.IntCol("peer"), telemetry.FloatCol("dur"),
}

// Diagnose runs the three detectors over a span stream — an open span
// colfile or an in-memory span table — and returns their findings: wait
// spikes, shm contention, throttling, each ordered by node, then rank. A
// source without the span columns, or a chunk that fails to decode, is an
// error.
func Diagnose(src tql.Source) ([]Finding, error) { return diagnoseWith(src, defaults) }

// diagnoseWith is Diagnose at the thresholds th.
func diagnoseWith(src tql.Source, th thresholds) ([]Finding, error) {
	have := src.Schema()
	for _, want := range spanCols {
		i := slices.IndexFunc(have, func(s telemetry.ColSpec) bool { return s.Name == want.Name })
		if i < 0 {
			return nil, fmt.Errorf("diagnose: not a span stream: no column %q", want.Name)
		}
		if have[i].Type != want.Type {
			return nil, fmt.Errorf("diagnose: not a span stream: column %q is %s, not %s", want.Name, have[i].Type, want.Type)
		}
	}
	var out []Finding
	for _, detect := range []func(tql.Source, thresholds) ([]Finding, error){
		waitSpikes, shmContention, throttling,
	} {
		fs, err := detect(src, th)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

// keyed holds values under int64 keys in key order — what a detector keeps
// where a map would be, so that every walk over one is ordered.
type keyed[V any] struct {
	keys []int64
	vals []V
}

// at returns the value under key, a zero one added first if there is none.
func (k *keyed[V]) at(key int64) *V {
	i, ok := slices.BinarySearch(k.keys, key)
	if !ok {
		var zero V
		k.keys = slices.Insert(k.keys, i, key)
		k.vals = slices.Insert(k.vals, i, zero)
	}
	return &k.vals[i]
}

// get returns the value under key, zero if there is none.
func (k *keyed[V]) get(key int64) (v V) {
	if i, ok := slices.BinarySearch(k.keys, key); ok {
		v = k.vals[i]
	}
	return v
}

// runEnd returns where the run of equal keys starting at lo ends.
func runEnd(keys []int64, lo int) int {
	hi := lo + 1
	for hi < len(keys) && keys[hi] == keys[lo] {
		hi++
	}
	return hi
}

// waitSpikes detects rank-relative MPI_Wait outliers: send-wait spans whose
// duration exceeds both the absolute floor and a multiple of their step's
// median send-wait. One finding per implicated rank.
func waitSpikes(src tql.Source, th thresholds) ([]Finding, error) {
	spikes, err := tql.RunOn(fmt.Sprintf(qSpikes, strconv.FormatFloat(th.spikeFloor, 'g', -1, 64)), src)
	if err != nil || spikes.NumRows() == 0 {
		return nil, err
	}
	waits, err := tql.RunOn(qSendWait, src)
	if err != nil {
		return nil, err
	}
	ranks, err := tql.RunOn(qRanks, src)
	if err != nil {
		return nil, err
	}

	// Fleet-relative baseline: per step, the median over every rank's total
	// send-wait time, counting zero for ranks that never blocked. Taking the
	// median over only the spans themselves would let a handful of spikes
	// (the usual case — healthy sends complete before Wait) define their own
	// baseline and suppress the cut.
	fleet := 0
	for lo, rk := 0, ranks.Ints("rank"); lo < len(rk); lo = runEnd(rk, lo) {
		fleet++
	}
	var medians keyed[float64]
	waitSteps, waitSecs := waits.Ints("step"), waits.Floats("sum_dur")
	for lo, hi := 0, 0; lo < len(waitSteps); lo = hi {
		hi = runEnd(waitSteps, lo)
		totals := make([]float64, fleet) // the ranks that never blocked stay zero
		copy(totals, waitSecs[lo:hi])
		*medians.at(waitSteps[lo]) = stats.Median(totals)
	}

	var perRank keyed[Finding]
	rk, nodes, steps, durs := spikes.Ints("rank"), spikes.Ints("node"), spikes.Ints("step"), spikes.Floats("dur")
	for r := range rk {
		cut := th.spikeFloor
		if rel := th.spikeFactor * medians.get(steps[r]); rel > cut {
			cut = rel
		}
		if durs[r] < cut {
			continue
		}
		f, step := perRank.at(rk[r]), int(steps[r])
		if f.Events == 0 {
			*f = Finding{
				Detector: "wait-spike",
				Node:     int(nodes[r]), Rank: int(rk[r]),
				FirstStep: step, LastStep: step,
			}
		}
		f.Events++
		f.Severity = max(f.Severity, durs[r])
		f.FirstStep, f.LastStep = min(f.FirstStep, step), max(f.LastStep, step)
	}
	out := perRank.vals
	for i := range out {
		f := &out[i]
		f.Detail = fmt.Sprintf("%d send-wait spikes on rank %d (worst %.3g ms): missing-ACK recovery signature",
			f.Events, f.Rank, f.Severity*1e3)
	}
	sortFindings(out)
	return out, nil
}

// shmContention detects nodes whose shared-memory queue is undersized: one
// finding per node whose queue-full stall *rate* (stalls per local send)
// shows saturation rather than burst peaks. A correctly sized queue still
// overflows at exchange-burst peaks (every rank posts its sends at step
// start), so absolute stall counts cannot separate tuned from mis-tuned —
// the rate can: an undersized queue stalls nearly every local message.
func shmContention(src tql.Source, th thresholds) ([]Finding, error) {
	stalls, err := tql.RunOn(qStalls, src)
	if err != nil || stalls.NumRows() == 0 {
		return nil, err
	}
	sends, err := tql.RunOn(qSends, src)
	if err != nil {
		return nil, err
	}
	ranks, err := tql.RunOn(qRanks, src)
	if err != nil {
		return nil, err
	}

	// Local-send denominators: an isend span is local when its peer lives on
	// the sender's node (node resolved through the rank→node map the span
	// stream itself provides).
	var localSends keyed[int]
	rk, nodeOf := ranks.Ints("rank"), ranks.Ints("node")
	senders, peers, posts := sends.Ints("node"), sends.Ints("peer"), sends.Floats("count")
	for r, node := range senders {
		if i, ok := slices.BinarySearch(rk, peers[r]); ok && nodeOf[i] == node {
			*localSends.at(node) += int(posts[r])
		}
	}

	var out []Finding
	nodes, events, secs := stalls.Ints("node"), stalls.Floats("count"), stalls.Floats("sum_dur")
	first, last := stalls.Floats("min_step"), stalls.Floats("max_step")
	for r := range nodes {
		f := Finding{
			Detector: "shm-contention",
			Node:     int(nodes[r]), Rank: -1,
			FirstStep: int(first[r]), LastStep: int(last[r]),
			Events: int(events[r]), Severity: secs[r],
		}
		if f.Events < th.shmMinEvents {
			continue
		}
		if sends := localSends.get(nodes[r]); sends > 0 {
			rate := float64(f.Events) / float64(sends)
			if rate < th.shmSaturation {
				continue
			}
			f.Detail = fmt.Sprintf("node %d shm queue saturated: %d of %d local sends stalled (rate %.2f, %.3g s total): undersized queue signature",
				f.Node, f.Events, sends, rate, f.Severity)
		} else {
			// No send posts in the stream (partial trace): fall back to the
			// stall magnitude — deep queues produce micro-stalls, undersized
			// ones millisecond-scale retry loops.
			if f.Severity/float64(f.Events) < th.shmMeanStall {
				continue
			}
			f.Detail = fmt.Sprintf("node %d shm queue stalling %.3g ms per event over %d events: undersized queue signature",
				f.Node, f.Severity/float64(f.Events)*1e3, f.Events)
		}
		out = append(out, f)
	}
	return out, nil
}

// throttling detects nodes with sustained compute inflation: per step, each
// node's total compute-span time is compared with the fleet median; a node
// throttled in at least SustainFrac of its observed steps is flagged, and
// the finding is cross-checked against any probe spans in the stream.
// Inflation is relative: a node alone in the stream is its own median, at
// ratio 1, and is never flagged.
func throttling(src tql.Source, th thresholds) ([]Finding, error) {
	compute, err := tql.RunOn(qCompute, src)
	if err != nil {
		return nil, err
	}
	type acc struct {
		hot, seen   int
		ratioSum    float64
		first, last int64
	}
	var accs keyed[acc]
	steps, nodes, secs := compute.Ints("step"), compute.Ints("node"), compute.Floats("sum_dur")
	for lo, hi := 0, 0; lo < len(steps); lo = hi {
		hi = runEnd(steps, lo)
		med := stats.Median(secs[lo:hi])
		if med <= 0 {
			continue
		}
		for r := lo; r < hi; r++ {
			a := accs.at(nodes[r])
			a.seen++
			if ratio := secs[r] / med; ratio >= th.throttleRatio {
				if a.hot == 0 {
					a.first = steps[r]
				}
				a.hot++
				a.last = steps[r]
				a.ratioSum += ratio
			}
		}
	}

	var out []Finding
	for i, a := range accs.vals {
		if float64(a.hot)/float64(a.seen) < th.sustainFrac {
			continue
		}
		out = append(out, Finding{
			Detector: "throttling",
			Node:     int(accs.keys[i]), Rank: -1,
			FirstStep: int(a.first), LastStep: int(a.last),
			Events:   a.hot,
			Severity: a.ratioSum / float64(a.hot),
		})
	}
	if len(out) == 0 {
		return nil, nil
	}
	pre, post, err := probeRatios(src)
	if err != nil {
		return nil, err
	}
	for i := range out {
		f := &out[i]
		f.ProbePre, f.ProbePost = pre.get(int64(f.Node)), post.get(int64(f.Node))
		if f.ProbePre > 0 {
			f.ProbeDrift = (f.ProbePost - f.ProbePre) / f.ProbePre
		}
		f.ProbeConfirmed = f.ProbePre > th.probeRatio || f.ProbePost > th.probeRatio
		f.Detail = fmt.Sprintf("node %d compute inflated %.2fx vs fleet median in %d/%d steps (probe confirmed: %v)",
			f.Node, f.Severity, f.Events, accs.get(int64(f.Node)).seen, f.ProbeConfirmed)
	}
	return out, nil
}

// probeRatios extracts the health-probe spans (kind probe_pre/probe_post):
// per node, the kernel time of its last probe of each kind over the fleet's
// lower-quartile time (the internal/health baseline). A node without a
// probe reads as zero.
func probeRatios(src tql.Source) (pre, post keyed[float64], err error) {
	probes, err := tql.RunOn(qProbes, src)
	if err != nil {
		return pre, post, err
	}
	kinds, nodes, durs := probes.Strings("kind"), probes.Ints("node"), probes.Floats("dur")
	for r, kind := range kinds {
		if kind == "probe_pre" {
			*pre.at(nodes[r]) = durs[r]
		} else {
			*post.at(nodes[r]) = durs[r]
		}
	}
	for _, times := range [][]float64{pre.vals, post.vals} {
		if len(times) == 0 {
			continue
		}
		ref := stats.Percentile(times, 25)
		if ref <= 0 {
			continue
		}
		for i := range times {
			times[i] /= ref
		}
	}
	return pre, post, nil
}

// sortFindings orders findings deterministically: by node, then rank.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Node != fs[j].Node {
			return fs[i].Node < fs[j].Node
		}
		return fs[i].Rank < fs[j].Rank
	})
}

// ReportTable renders findings as a columnar diagnosis report: detector,
// node, rank, first_step, last_step, events, severity, probe_pre,
// probe_post, probe_drift, probe_confirmed, detail.
func ReportTable(fs []Finding) *telemetry.Table {
	t := telemetry.NewTable(
		telemetry.StrCol("detector"), telemetry.IntCol("node"),
		telemetry.IntCol("rank"), telemetry.IntCol("first_step"),
		telemetry.IntCol("last_step"), telemetry.IntCol("events"),
		telemetry.FloatCol("severity"), telemetry.FloatCol("probe_pre"),
		telemetry.FloatCol("probe_post"), telemetry.FloatCol("probe_drift"),
		telemetry.IntCol("probe_confirmed"), telemetry.StrCol("detail"),
	)
	for _, f := range fs {
		confirmed := 0
		if f.ProbeConfirmed {
			confirmed = 1
		}
		t.Append(f.Detector, f.Node, f.Rank, f.FirstStep, f.LastStep,
			f.Events, f.Severity, f.ProbePre, f.ProbePost, f.ProbeDrift,
			confirmed, f.Detail)
	}
	return t
}
