package diagnose

// The map-based detectors this package ran before its detectors became TQL
// queries, kept as the differential reference: one pass over a materialized
// span table per detector, hand-written GROUP BY / SUM / COUNT / MIN / MAX in
// maps. TestDiagnoseMatchesOracle holds Diagnose to them field for field.

import (
	"fmt"
	"sort"

	"amrtools/internal/stats"
	"amrtools/internal/telemetry"
)

// spanView caches the span-table columns the detectors read.
type spanView struct {
	n     int
	kinds []string
	ranks []int64
	nodes []int64
	steps []int64
	t0s   []float64
	durs  []float64
}

func view(t *telemetry.Table) spanView {
	return spanView{
		n:     t.NumRows(),
		kinds: t.Strings("kind"),
		ranks: t.Ints("rank"),
		nodes: t.Ints("node"),
		steps: t.Ints("step"),
		t0s:   t.Floats("t0"),
		durs:  t.Floats("dur"),
	}
}

// oracleWaitSpikes detects rank-relative MPI_Wait outliers: send-wait spans whose
// duration exceeds both the absolute floor and a multiple of their step's
// median send-wait. One finding per implicated rank.
func oracleWaitSpikes(spans *telemetry.Table, th thresholds) []Finding {
	v := view(spans)

	// Fleet-relative baseline: per step, the median over every rank's total
	// send-wait time, counting zero for ranks that never blocked. Taking the
	// median over only the spans themselves would let a handful of spikes
	// (the usual case — healthy sends complete before Wait) define their own
	// baseline and suppress the cut.
	fleet := map[int64]bool{}
	for r := 0; r < v.n; r++ {
		fleet[v.ranks[r]] = true
	}
	byStep := map[int64]map[int64]float64{} // step -> rank -> total send wait
	for r := 0; r < v.n; r++ {
		if v.kinds[r] != "send_wait" {
			continue
		}
		m := byStep[v.steps[r]]
		if m == nil {
			m = map[int64]float64{}
			byStep[v.steps[r]] = m
		}
		m[v.ranks[r]] += v.durs[r]
	}
	medians := make(map[int64]float64, len(byStep))
	for step, perRank := range byStep {
		totals := make([]float64, 0, len(fleet))
		for rank := range fleet {
			totals = append(totals, perRank[rank])
		}
		medians[step] = stats.Median(totals)
	}

	perRank := map[int64]*Finding{}
	for r := 0; r < v.n; r++ {
		if v.kinds[r] != "send_wait" {
			continue
		}
		cut := th.spikeFloor
		if rel := th.spikeFactor * medians[v.steps[r]]; rel > cut {
			cut = rel
		}
		if v.durs[r] < cut {
			continue
		}
		f := perRank[v.ranks[r]]
		if f == nil {
			f = &Finding{
				Detector: "wait-spike",
				Node:     int(v.nodes[r]), Rank: int(v.ranks[r]),
				FirstStep: int(v.steps[r]), LastStep: int(v.steps[r]),
			}
			perRank[v.ranks[r]] = f
		}
		f.Events++
		if v.durs[r] > f.Severity {
			f.Severity = v.durs[r]
		}
		if s := int(v.steps[r]); s < f.FirstStep {
			f.FirstStep = s
		} else if s > f.LastStep {
			f.LastStep = s
		}
	}
	var out []Finding
	for _, f := range perRank {
		f.Detail = fmt.Sprintf("%d send-wait spikes on rank %d (worst %.3g ms): missing-ACK recovery signature",
			f.Events, f.Rank, f.Severity*1e3)
		out = append(out, *f)
	}
	sortFindings(out)
	return out
}

// oracleShmContention detects nodes whose shared-memory queue is undersized: one
// finding per node whose queue-full stall *rate* (stalls per local send)
// shows saturation rather than burst peaks. A correctly sized queue still
// overflows at exchange-burst peaks (every rank posts its sends at step
// start), so absolute stall counts cannot separate tuned from mis-tuned —
// the rate can: an undersized queue stalls nearly every local message.
func oracleShmContention(spans *telemetry.Table, th thresholds) []Finding {
	v := view(spans)

	// Local-send denominators: an isend span is local when its peer lives on
	// the sender's node (node resolved through the rank→node map the span
	// stream itself provides).
	nodeOf := map[int64]int64{}
	for r := 0; r < v.n; r++ {
		nodeOf[v.ranks[r]] = v.nodes[r]
	}
	peers := spans.Ints("peer")
	localSends := map[int64]int{}
	for r := 0; r < v.n; r++ {
		if v.kinds[r] != "isend" {
			continue
		}
		if pn, ok := nodeOf[peers[r]]; ok && pn == v.nodes[r] {
			localSends[v.nodes[r]]++
		}
	}

	perNode := map[int64]*Finding{}
	for r := 0; r < v.n; r++ {
		if v.kinds[r] != "shm_stall" {
			continue
		}
		f := perNode[v.nodes[r]]
		if f == nil {
			f = &Finding{
				Detector: "shm-contention",
				Node:     int(v.nodes[r]), Rank: -1,
				FirstStep: int(v.steps[r]), LastStep: int(v.steps[r]),
			}
			perNode[v.nodes[r]] = f
		}
		f.Events++
		f.Severity += v.durs[r]
		if s := int(v.steps[r]); s < f.FirstStep {
			f.FirstStep = s
		} else if s > f.LastStep {
			f.LastStep = s
		}
	}
	var out []Finding
	for _, f := range perNode {
		if f.Events < th.shmMinEvents {
			continue
		}
		sends := localSends[int64(f.Node)]
		if sends > 0 {
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
		out = append(out, *f)
	}
	sortFindings(out)
	return out
}

// oracleThrottling detects nodes with sustained compute inflation: per step, each
// node's total compute-span time is compared with the fleet median; a node
// throttled in at least SustainFrac of its observed steps is flagged, and
// the finding is cross-checked against any probe spans in the stream.
func oracleThrottling(spans *telemetry.Table, th thresholds) []Finding {
	v := view(spans)

	// node -> step -> total compute seconds.
	compute := map[int64]map[int64]float64{}
	stepSet := map[int64]bool{}
	for r := 0; r < v.n; r++ {
		if v.kinds[r] != "compute" || v.steps[r] < 0 {
			continue
		}
		m := compute[v.nodes[r]]
		if m == nil {
			m = map[int64]float64{}
			compute[v.nodes[r]] = m
		}
		m[v.steps[r]] += v.durs[r]
		stepSet[v.steps[r]] = true
	}
	if len(compute) < 2 {
		return nil // inflation is relative; one node has no fleet to compare against
	}
	steps := make([]int64, 0, len(stepSet))
	for s := range stepSet {
		steps = append(steps, s)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })

	type acc struct {
		hot, seen int
		ratioSum  float64
		first     int64
		last      int64
	}
	accs := map[int64]*acc{}
	for _, step := range steps {
		var fleet []float64
		for _, m := range compute {
			if c, ok := m[step]; ok {
				fleet = append(fleet, c)
			}
		}
		med := stats.Median(fleet)
		if med <= 0 {
			continue
		}
		for node, m := range compute {
			c, ok := m[step]
			if !ok {
				continue
			}
			a := accs[node]
			if a == nil {
				a = &acc{first: step, last: step}
				accs[node] = a
			}
			a.seen++
			ratio := c / med
			if ratio >= th.throttleRatio {
				if a.hot == 0 {
					a.first = step
				}
				a.hot++
				a.last = step
				a.ratioSum += ratio
			}
		}
	}

	probes := oracleProbeRatios(spans)
	var out []Finding
	for node, a := range accs {
		if a.seen == 0 || float64(a.hot)/float64(a.seen) < th.sustainFrac {
			continue
		}
		f := Finding{
			Detector: "throttling",
			Node:     int(node), Rank: -1,
			FirstStep: int(a.first), LastStep: int(a.last),
			Events:   a.hot,
			Severity: a.ratioSum / float64(a.hot),
		}
		if p, ok := probes[node]; ok {
			f.ProbePre, f.ProbePost = p.pre, p.post
			if p.pre > 0 {
				f.ProbeDrift = (p.post - p.pre) / p.pre
			}
			f.ProbeConfirmed = p.pre > th.probeRatio || p.post > th.probeRatio
		}
		f.Detail = fmt.Sprintf("node %d compute inflated %.2fx vs fleet median in %d/%d steps (probe confirmed: %v)",
			f.Node, f.Severity, a.hot, a.seen, f.ProbeConfirmed)
		out = append(out, f)
	}
	sortFindings(out)
	return out
}

// oracleProbePair is one node's pre/post probe kernel-time ratios vs the
// lower-quartile reference (the internal/health baseline).
type oracleProbePair struct{ pre, post float64 }

// oracleProbeRatios extracts health-probe spans (kind probe_pre/probe_post) and
// normalizes each node's kernel time by the fleet's lower-quartile time.
func oracleProbeRatios(spans *telemetry.Table) map[int64]oracleProbePair {
	v := view(spans)
	pre := map[int64]float64{}
	post := map[int64]float64{}
	for r := 0; r < v.n; r++ {
		switch v.kinds[r] {
		case "probe_pre":
			pre[v.nodes[r]] = v.durs[r]
		case "probe_post":
			post[v.nodes[r]] = v.durs[r]
		}
	}
	if len(pre) == 0 && len(post) == 0 {
		return nil
	}
	norm := func(m map[int64]float64) {
		xs := make([]float64, 0, len(m))
		for _, t := range m {
			xs = append(xs, t)
		}
		if len(xs) == 0 {
			return
		}
		ref := stats.Percentile(xs, 25)
		if ref <= 0 {
			return
		}
		for node, t := range m {
			m[node] = t / ref
		}
	}
	norm(pre)
	norm(post)
	out := map[int64]oracleProbePair{}
	for node, r := range pre {
		p := out[node]
		p.pre = r
		out[node] = p
	}
	for node, r := range post {
		p := out[node]
		p.post = r
		out[node] = p
	}
	return out
}

// oracleDiagnose runs all three detectors and returns their findings,
// most-severe-first within each detector, detectors in a stable order.
func oracleDiagnose(spans *telemetry.Table, th thresholds) []Finding {
	var out []Finding
	out = append(out, oracleWaitSpikes(spans, th)...)
	out = append(out, oracleShmContention(spans, th)...)
	out = append(out, oracleThrottling(spans, th)...)
	return out
}
