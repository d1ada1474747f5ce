package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric. The two lists below are the
// canonical definition; BENCHMARK.json repeats name and unit (a test keeps
// them in step) and adds direction and bound.
type metricDef struct {
	name string
	unit string
	// exact marks a count or simulated statistic that must repeat
	// bit-for-bit for a given seed: every sample within a run has to agree,
	// and -selfcheck compares it across runs with == instead of a bound.
	exact bool
}

// endToEnd is what a user of the simulator and its telemetry pipeline sees,
// measured with tracing off. All are host quantities, lower is better.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "wall_s", unit: "s"},
	{name: "cpu_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer is the traced tier. Units ending in s/ms/us/ns are host time
// except sim_s, which is simulated time.
var perLayer = []metricDef{
	{name: "sim.event_ns", unit: "ns"},
	{name: "sim.proc_switch_ns", unit: "ns"},
	{name: "sim.shards_event_ns", unit: "ns"},
	{name: "sim.shard_speedup", unit: "x"},

	{name: "simnet.plan_local_ns", unit: "ns"},
	{name: "simnet.plan_remote_ns", unit: "ns"},
	{name: "simnet.plan_faulty_ns", unit: "ns"},

	{name: "mpi.stream_msg_ns", unit: "ns"},
	{name: "mpi.roundtrip_ns", unit: "ns"},
	{name: "mpi.fanin_msg_ns", unit: "ns"},
	{name: "mpi.barrier_round_ns", unit: "ns"},
	{name: "mpi.allreduce_round_ns", unit: "ns"},
	{name: "mpi.observed_msg_ns", unit: "ns"},

	{name: "mesh.refine_ms", unit: "ms"},
	{name: "mesh.neighbors_ns", unit: "ns"},
	{name: "mesh.adjacency_ms", unit: "ms"},
	{name: "mesh.rank_views_ms", unit: "ms"},
	{name: "mesh.rank_view_bytes", unit: "bytes", exact: true},

	{name: "placement.baseline_16k_ms", unit: "ms"},
	{name: "placement.lpt_16k_ms", unit: "ms"},
	{name: "placement.cdp_16k_ms", unit: "ms"},
	{name: "placement.cpl50_4k_ms", unit: "ms"},
	{name: "placement.cpl50_16k_ms", unit: "ms"},
	{name: "placement.cpl50_64k_ms", unit: "ms"},
	{name: "placement.cpl100_16k_ms", unit: "ms"},
	{name: "placement.cpl50_makespan_norm", unit: "ratio", exact: true},

	{name: "driver.run_s", unit: "s"},
	{name: "driver.events", unit: "count", exact: true},
	{name: "driver.ns_per_event", unit: "ns"},
	{name: "driver.makespan_s", unit: "sim_s", exact: true},
	{name: "driver.msgs_local", unit: "count", exact: true},
	{name: "driver.msgs_remote", unit: "count", exact: true},
	{name: "driver.lb_steps", unit: "count", exact: true},
	{name: "driver.migrations", unit: "count", exact: true},
	{name: "driver.placement_wall_ms", unit: "ms"},
	{name: "driver.rank_meta_bytes", unit: "bytes", exact: true},
	{name: "driver.alloc_mb", unit: "MB"},

	{name: "harness.overhead_ms", unit: "ms"},
	{name: "harness.j_speedup", unit: "x"},

	{name: "telemetry.append_ns_per_row", unit: "ns"},
	{name: "telemetry.groupby_ms", unit: "ms"},
	{name: "telemetry.sort_ms", unit: "ms"},
	{name: "telemetry.ingest_s", unit: "s"},

	{name: "colfile.write_ns_per_row", unit: "ns"},
	{name: "colfile.bytes_per_row", unit: "bytes", exact: true},
	{name: "colfile.open_us", unit: "us"},
	{name: "colfile.decode_chunk_us", unit: "us"},
	{name: "colfile.decode_col_us", unit: "us"},

	{name: "tql.parse_us", unit: "us"},
	{name: "tql.q_pushdown_ms", unit: "ms"},
	{name: "tql.q_scan_ms", unit: "ms"},
	{name: "tql.q_footer_us", unit: "us"},
	{name: "tql.q_strfilter_ms", unit: "ms"},
	{name: "tql.q_groupstr_ms", unit: "ms"},
	{name: "tql.q_topk_ms", unit: "ms"},
	{name: "tql.q_mem_ms", unit: "ms"},
	{name: "tql.query_mix_s", unit: "s"},
	{name: "tql.chunks_scanned", unit: "count", exact: true},
	{name: "tql.chunks_skipped", unit: "count", exact: true},
	{name: "tql.fallbacks", unit: "count", exact: true},

	{name: "trace.spans", unit: "count", exact: true},
	{name: "trace.table_ms", unit: "ms"},
	{name: "trace.enabled_overhead_pct", unit: "%"},
	{name: "metrics.enabled_overhead_pct", unit: "%"},
	{name: "metrics.snapshot_us", unit: "us"},

	{name: "bench.trace_overhead_pct", unit: "%"},
}

// quartiles returns the three quartile cut points of vals computed the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method), so
// the spread this program prints is the spread the acceptance procedure
// computes. A single value is its own quartiles.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the second quartile.
func median(vals []float64) float64 {
	_, q2, _ := quartiles(vals)
	return q2
}

// samples collects the measurements of one run, keyed by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// summary is one metric's reported statistics.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Exact  bool    `json:"exact,omitempty"`
	// Samples are the raw measurements in the order taken, kept in the
	// result file so a spread can be re-examined without re-running.
	Samples []float64 `json:"samples"`
}

// summarize reduces the samples of every metric in defs. A metric without
// samples is a bug in the benchmark and is reported as an error, as is an
// exact metric whose samples disagree.
func summarize(defs []metricDef, s samples) (map[string]summary, []string) {
	out := make(map[string]summary, len(defs))
	var errs []string
	for _, d := range defs {
		vals := s[d.name]
		if len(vals) == 0 {
			errs = append(errs, fmt.Sprintf("metric %s has no samples", d.name))
			continue
		}
		if d.exact {
			for _, v := range vals[1:] {
				if v != vals[0] {
					errs = append(errs, fmt.Sprintf("exact metric %s varies within one run: %v", d.name, vals))
					break
				}
			}
		}
		q1, _, q3 := quartiles(vals)
		out[d.name] = summary{Unit: d.unit, Median: median(vals), Q1: q1, Q3: q3, N: len(vals), Exact: d.exact, Samples: vals}
	}
	return out, errs
}

// printSummaries writes one line per metric: name, median, unit, quartiles
// and sample count.
func printSummaries(w io.Writer, defs []metricDef, sums map[string]summary) {
	for _, d := range defs {
		s, ok := sums[d.name]
		if !ok {
			continue
		}
		tag := ""
		if s.Exact {
			tag = "  exact"
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s q1=%-12.6g q3=%-12.6g n=%d%s\n",
			d.name, s.Median, s.Unit, s.Q1, s.Q3, s.N, tag)
	}
}
