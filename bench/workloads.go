package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"amrtools/internal/colfile"
	"amrtools/internal/driver"
	"amrtools/internal/experiments"
	"amrtools/internal/harness"
	"amrtools/internal/metrics"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
	"amrtools/internal/trace"
	"amrtools/internal/xrand"
)

// workload is one named set of inputs. Every workload is a closed loop with
// a single generator goroutine: the next repetition starts when the previous
// one returns.
type workload struct {
	name string
	why  string
	// build generates the inputs from the seed. small shrinks the problem
	// for the smoke test; its numbers are not comparable with a full run.
	build func(seed uint64, small bool) *runner
}

// runner is a built workload. run is the timed part and calls only the
// layers' public functions; check is untimed and verifies what run
// produced; verify, when set, runs once after the timed repetitions with
// their digest and returns its own checks.
type runner struct {
	run    func(sp *span) *repOut
	check  func(o *repOut)
	verify func(digest string) *repOut
}

// repOut is what one repetition produced and what checking it found.
type repOut struct {
	attempted, failed int
	fails             []string
	// digest is the SHA-256 of the repetition's result tables with
	// experiments.NondetCols dropped; it must not change between
	// repetitions of one run.
	digest string
	drv    driverAcc
	// payload is the workload's own output, handed from run to check.
	payload interface{}
}

func (o *repOut) op(err error, what string) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.fails = append(o.fails, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

var workloads = []workload{
	{
		name:  "sedov_sweep",
		why:   "Fig 6 quick campaign (6 policies x 128 ranks x 25 steps, 2.8 M events) at -j 1 on the default engine: the serial DES hot path does nearly all the work; placement, colfile and tql almost none.",
		build: buildSweep,
	},
	{
		name:  "sedov_sharded",
		why:   "One 512-rank Sedov/CPLX50 run at Shards=min(nproc,4): the only workload with sim.Shards windows, barriers and the cross-shard merge on the blocking path.",
		build: buildSharded,
	},
	{
		name:  "scale_4k",
		why:   "ScaleConfig(4096), the largest Table I scale: few steps, so rank views, plan build, chunked CPLX and allocation dominate and the working set is far beyond the last-level cache.",
		build: buildScale,
	},
	{
		name:  "faulty_observed",
		why:   "256-rank Sedov on the untuned fabric with waits, spans and metrics all on, spans written through colfile: fault slow paths and every emission site live, which a fast-path gain must not slow.",
		build: buildFaulty,
	},
	{
		name:  "placement_scale",
		why:   "The paper's policies at 4k/16k/64k ranks on two cost distributions with no DES at all: the Fig 7c budget isolated from the simulator; every DES optimisation must leave it flat.",
		build: buildPlacement,
	},
	{
		name:  "telemetry_query",
		why:   "Build and write a 1 M-row table, reopen it and run a fixed seven-query mix: writes beside reads on the colfile layer and both tql executors, no simulation.",
		build: buildTelemetry,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// driverRun is one driver.Run call as seen from outside.
type driverRun struct {
	res   *driver.Result
	wall  time.Duration
	alloc uint64 // TotalAlloc delta in bytes; measured only when traced
}

// runDriver times one driver.Run under a span.
func runDriver(sp *span, name string, cfg driver.Config) (driverRun, error) {
	var m0, m1 runtime.MemStats
	if sp != nil {
		runtime.ReadMemStats(&m0)
	}
	c := sp.child("driver", name)
	t0 := time.Now()
	res, err := driver.Run(cfg)
	wall := time.Since(t0)
	c.done()
	if sp != nil {
		runtime.ReadMemStats(&m1)
	}
	return driverRun{res: res, wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc}, err
}

// driverAcc sums the values driver.Run returned over one repetition: the
// driver.* per-layer metrics.
type driverAcc struct {
	runs          int
	runS          float64
	events        int64
	makespan      float64
	local, remote int64
	lbSteps       int
	migrations    int
	placementMs   float64
	rankMetaBytes int
	allocMB       float64
}

func (a *driverAcc) add(r driverRun) {
	a.runs++
	a.runS += r.wall.Seconds()
	a.events += r.res.Events
	a.makespan += r.res.Makespan
	a.local += r.res.Census.LocalMsgs
	a.remote += r.res.Census.RemoteMsgs
	a.lbSteps += r.res.LBSteps
	a.migrations += r.res.Migrations
	for _, d := range r.res.PlacementWall {
		a.placementMs += float64(d) / float64(time.Millisecond)
	}
	if r.res.MaxRankMetaBytes > a.rankMetaBytes {
		a.rankMetaBytes = r.res.MaxRankMetaBytes
	}
	a.allocMB += float64(r.alloc) / (1 << 20)
}

// record adds one repetition's sums as samples of the driver.* metrics.
func (a *driverAcc) record(s samples) {
	s.add("driver.run_s", a.runS)
	s.add("driver.events", float64(a.events))
	s.add("driver.ns_per_event", a.runS*1e9/float64(a.events))
	s.add("driver.makespan_s", a.makespan)
	s.add("driver.msgs_local", float64(a.local))
	s.add("driver.msgs_remote", float64(a.remote))
	s.add("driver.lb_steps", float64(a.lbSteps))
	s.add("driver.migrations", float64(a.migrations))
	s.add("driver.placement_wall_ms", a.placementMs)
	s.add("driver.rank_meta_bytes", float64(a.rankMetaBytes))
	s.add("driver.alloc_mb", a.allocMB)
}

// runSummary is the result table every simulation workload digests: one row
// per driver run, simulated statistics only.
func runSummary() *telemetry.Table {
	return telemetry.NewTable(
		telemetry.StrCol("run"), telemetry.FloatCol("makespan"), telemetry.IntCol("events"),
		telemetry.IntCol("msgs_local"), telemetry.IntCol("msgs_remote"),
		telemetry.IntCol("lb_steps"), telemetry.IntCol("migrations"),
		telemetry.IntCol("final_blocks"), telemetry.IntCol("rank_meta_b"),
	)
}

func appendSummary(t *telemetry.Table, id string, r *driver.Result) {
	t.Append(id, r.Makespan, r.Events, r.Census.LocalMsgs, r.Census.RemoteMsgs,
		r.LBSteps, r.Migrations, r.FinalBlocks, r.MaxRankMetaBytes)
}

// digester hashes result tables as CSV with the wall-clock-derived columns
// (experiments.NondetCols) dropped, so the digest depends only on simulated
// and deterministic values.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) table(t *telemetry.Table) error {
	if t == nil {
		return nil
	}
	var drop []string
	for _, c := range experiments.NondetCols {
		if t.HasCol(c) {
			drop = append(drop, c)
		}
	}
	if len(drop) > 0 {
		t = t.Without(drop...)
	}
	return t.WriteCSV(d.h)
}

func (d *digester) bytes(b []byte) { d.h.Write(b) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// checkDriverRun counts one driver run, folds it into the repetition's
// accumulators and digests its tables.
func checkDriverRun(o *repOut, d *digester, sum *telemetry.Table, id string, r driverRun, err error) {
	if !o.op(err, "driver.Run "+id) {
		return
	}
	o.drv.add(r)
	appendSummary(sum, id, r.res)
	o.op(d.table(r.res.Steps), "digest steps "+id)
	o.op(d.table(r.res.Waits), "digest waits "+id)
}

// --- sedov_sweep ---

func buildSweep(seed uint64, small bool) *runner {
	dims, steps := experiments.QuickScale.RootDims, 25
	if small {
		dims, steps = [3]int{2, 2, 4}, 5
	}
	pols := placement.StandardSuite(0)
	return &runner{
		run: func(sp *span) *repOut {
			return &repOut{payload: sweepCampaign(sp, pols, dims, steps, seed, 1, nil)}
		},
		check: func(o *repOut) {
			d, sum := newDigester(), runSummary()
			for _, r := range o.payload.([]harness.Result[driverRun]) {
				checkDriverRun(o, d, sum, r.ID, r.Value, r.Err)
			}
			o.op(d.table(sum), "digest summary")
			o.digest = d.sum()
		},
	}
}

// sweepCampaign runs one Sedov configuration per policy through the
// campaign harness, the way experiments.Fig6 does.
func sweepCampaign(sp *span, pols []placement.Policy, dims [3]int, steps int, seed uint64,
	workers int, rec *harness.Recorder) []harness.Result[driverRun] {
	h := sp.child("harness", "Run")
	defer h.done()
	specs := make([]harness.Spec[driverRun], len(pols))
	for i, pol := range pols {
		specs[i] = harness.Spec[driverRun]{
			ID: pol.Name(),
			Run: func(m *harness.Meter) (driverRun, error) {
				cfg := driver.DefaultConfig(dims, 2, steps, pol, seed)
				cfg.Interrupt = m.Aborted
				r, err := runDriver(h, pol.Name(), cfg)
				if err == nil {
					m.AddEvents(r.res.Events)
				}
				return r, err
			},
		}
	}
	return harness.Run(harness.Exec{Workers: workers, Recorder: rec}, "sedov_sweep", specs)
}

// --- sedov_sharded ---

func buildSharded(seed uint64, small bool) *runner {
	dims, steps := [3]int{8, 8, 8}, 20
	if small {
		dims, steps = [3]int{2, 4, 4}, 5
	}
	shards := runtime.GOMAXPROCS(0)
	config := func(shards int) driver.Config {
		cfg := driver.DefaultConfig(dims, 2, steps, placement.CPLX{X: 50}, seed)
		cfg.Shards = shards
		return cfg
	}
	return &runner{
		run: func(sp *span) *repOut {
			r, err := runDriver(sp, fmt.Sprintf("shards=%d", shards), config(shards))
			return &repOut{payload: driverOut{r, err}}
		},
		check: checkSingleRun,
		// The identity contract: any positive shard count gives the same
		// tables as one shard.
		verify: func(digest string) *repOut {
			r, err := runDriver(nil, "shards=1", config(1))
			one := &repOut{payload: driverOut{r, err}}
			checkSingleRun(one)
			one.op(sameDigest(one.digest, digest), fmt.Sprintf("Shards=1 vs Shards=%d", shards))
			return one
		},
	}
}

// driverOut is the payload of a repetition that is a single driver run.
type driverOut struct {
	run driverRun
	err error
}

// checkSingleRun checks and digests a driverOut repetition.
func checkSingleRun(o *repOut) {
	d, sum := newDigester(), runSummary()
	p := o.payload.(driverOut)
	checkDriverRun(o, d, sum, "run", p.run, p.err)
	o.op(d.table(sum), "digest summary")
	o.digest = d.sum()
}

func sameDigest(got, want string) error {
	if got != want {
		return fmt.Errorf("digest %s, want %s", got, want)
	}
	return nil
}

// --- scale_4k ---

func buildScale(seed uint64, small bool) *runner {
	ranks := 4096
	if small {
		ranks = 512
	}
	return &runner{
		run: func(sp *span) *repOut {
			cfg, err := experiments.ScaleConfig(ranks, false, seed)
			if err != nil {
				return &repOut{payload: driverOut{err: err}}
			}
			r, err := runDriver(sp, fmt.Sprintf("%dranks", ranks), cfg)
			return &repOut{payload: driverOut{r, err}}
		},
		check: checkSingleRun,
	}
}

// --- faulty_observed ---

type faultyOut struct {
	driverOut
	spans *telemetry.Table
	file  []byte
	werr  error
}

func buildFaulty(seed uint64, small bool) *runner {
	dims, steps := [3]int{4, 8, 8}, 25
	if small {
		dims, steps = [3]int{2, 4, 4}, 5
	}
	nodes := dims[0] * dims[1] * dims[2] / 16
	return &runner{
		run: func(sp *span) *repOut {
			cfg := driver.DefaultConfig(dims, 2, steps, placement.CPLX{X: 50}, seed)
			cfg.Net = simnet.Untuned(nodes, 16, seed)
			cfg.SendsFirst = false
			cfg.CollectWaits = true
			// Twice the default ring: no rank evicts a span at this length,
			// so the span file holds the whole run.
			cfg.Trace = &trace.Config{PerRankCap: 2 * trace.DefaultPerRankCap}
			cfg.Metrics = &metrics.Config{}
			out := &faultyOut{}
			out.run, out.err = runDriver(sp, "untuned", cfg)
			if out.err != nil {
				return &repOut{payload: out}
			}
			t := sp.child("trace", "Table")
			out.spans = out.run.res.Spans.Table()
			t.done()
			w := sp.child("colfile", "WriteTable")
			var buf bytes.Buffer
			out.werr = colfile.WriteTable(&buf, out.spans, 8192)
			w.done()
			out.file = buf.Bytes()
			return &repOut{payload: out}
		},
		check: func(o *repOut) {
			d, sum := newDigester(), runSummary()
			p := o.payload.(*faultyOut)
			checkDriverRun(o, d, sum, "faulty", p.run, p.err)
			if p.err == nil {
				o.op(p.werr, "colfile.WriteTable spans")
				if n := p.run.res.Spans.Dropped(); n != 0 {
					o.op(fmt.Errorf("%d spans evicted", n), "span ring")
				}
				r, err := colfile.OpenBytes(p.file)
				if o.op(err, "reopen span file") && r.NumRows() != int64(p.spans.NumRows()) {
					o.op(fmt.Errorf("%d rows, wrote %d", r.NumRows(), p.spans.NumRows()), "reopen span file")
				}
				d.bytes(p.file)
			}
			o.op(d.table(sum), "digest summary")
			o.digest = d.sum()
		},
	}
}

// --- placement_scale ---

type placementCase struct {
	ranks int
	dist  string
	costs []float64
}

type placementOut struct {
	assigns [][]placement.Assignment // [case][policy]
}

// placementCosts draws n block costs: "uniform" in [0.5, 1.5), "heavy" a
// Pareto tail (alpha 1.5) like the refined shock front of a Sedov run.
func placementCosts(dist string, n int, rng *xrand.RNG) []float64 {
	costs := make([]float64, n)
	for i := range costs {
		if dist == "uniform" {
			costs[i] = 0.5 + rng.Float64()
		} else {
			costs[i] = rng.Pareto(1, 1.5)
		}
	}
	return costs
}

func buildPlacement(seed uint64, small bool) *runner {
	sizes := []int{4096, 16384, 65536}
	if small {
		sizes = []int{256, 1024}
	}
	pols := append(placement.StandardSuite(512), placement.LPT{},
		placement.CDP{Restricted: true, ChunkSize: 512})
	rng := xrand.New(seed ^ 0x706c6163)
	var cases []placementCase
	for _, ranks := range sizes {
		for _, dist := range []string{"uniform", "heavy"} {
			cases = append(cases, placementCase{ranks, dist, placementCosts(dist, 2*ranks, rng.Split())})
		}
	}
	return &runner{
		run: func(sp *span) *repOut {
			out := &placementOut{assigns: make([][]placement.Assignment, len(cases))}
			for i, c := range cases {
				for _, pol := range pols {
					s := sp.child("placement", fmt.Sprintf("%s/%d/%s", pol.Name(), c.ranks, c.dist))
					out.assigns[i] = append(out.assigns[i], pol.Assign(c.costs, c.ranks))
					s.done()
				}
			}
			return &repOut{payload: out}
		},
		check: func(o *repOut) {
			quality := telemetry.NewTable(
				telemetry.IntCol("ranks"), telemetry.StrCol("dist"), telemetry.StrCol("policy"),
				telemetry.FloatCol("makespan_norm"), telemetry.IntCol("moved_vs_baseline"),
			)
			for i, c := range cases {
				as := o.payload.(*placementOut).assigns[i]
				lb := placement.LowerBound(c.costs, c.ranks)
				for j, pol := range pols {
					id := fmt.Sprintf("%s/%d/%s", pol.Name(), c.ranks, c.dist)
					if !o.op(placement.Validate(as[j], len(c.costs), c.ranks), "Validate "+id) {
						continue
					}
					quality.Append(c.ranks, c.dist, pol.Name(),
						placement.Makespan(c.costs, as[j], c.ranks)/lb, placement.Migrations(as[0], as[j]))
				}
			}
			d := newDigester()
			o.op(d.table(quality), "digest quality")
			o.digest = d.sum()
		},
	}
}

// --- telemetry_query ---

// telemetryInput is the generated raw data: one slice per column, so the
// oracles loop over plain Go values and never touch a layer under test.
type telemetryInput struct {
	step, rank []int64
	wait       []float64
	policy     []uint8 // index into policyNames
	chunk      int
	memRows    int
}

var policyNames = []string{"baseline", "lpt", "cdp", "cpl50"}

func genTelemetry(seed uint64, small bool) *telemetryInput {
	rows, in := 1_000_000, &telemetryInput{chunk: 8192, memRows: 100_000}
	if small {
		rows, in.chunk, in.memRows = 40_000, 1024, 5_000
	}
	rng := xrand.New(seed ^ 0x74656c65)
	in.step, in.rank = make([]int64, rows), make([]int64, rows)
	in.wait, in.policy = make([]float64, rows), make([]uint8, rows)
	for i := 0; i < rows; i++ {
		in.step[i] = int64(i / (rows / 1000)) // step-sorted, 0..999
		in.rank[i] = int64(rng.Intn(512))
		in.wait[i] = rng.ExpFloat64() * 0.001
		in.policy[i] = uint8(rng.Intn(len(policyNames)))
	}
	return in
}

// fileQueries is the fixed mix run against the reopened file; memQuery runs
// on an in-memory table through the row executor. Every ORDER BY is total,
// so the expected row order is unique.
var fileQueries = []struct {
	name, metric string
	unit         time.Duration // of the metric
	src          string
}{
	{"pushdown", "tql.q_pushdown_ms", time.Millisecond, "SELECT rank, sum(wait) AS w FROM t WHERE step >= 920 GROUP BY rank ORDER BY w DESC LIMIT 8"},
	{"scan", "tql.q_scan_ms", time.Millisecond, "SELECT rank, count(*) AS n FROM t WHERE wait > 0.002 AND rank < 64 GROUP BY rank ORDER BY n DESC, rank LIMIT 4"},
	{"footer", "tql.q_footer_us", time.Microsecond, "SELECT count(*) AS n, min(wait) AS lo, max(wait) AS hi, sum(wait) AS s, avg(wait) AS m FROM t"},
	{"strfilter", "tql.q_strfilter_ms", time.Millisecond, "SELECT count(*) AS n, sum(wait) AS w FROM t WHERE policy = 'cdp'"},
	{"groupstr", "tql.q_groupstr_ms", time.Millisecond, "SELECT policy, count(*) AS n, avg(wait) AS w FROM t GROUP BY policy ORDER BY policy"},
	{"topk", "tql.q_topk_ms", time.Millisecond, "SELECT step, rank, wait FROM t WHERE step < 250 ORDER BY wait DESC LIMIT 10"},
}

const memQuery = "SELECT rank, count(*) AS n FROM t WHERE wait > 0.002 AND rank < 64 GROUP BY rank ORDER BY n DESC, rank LIMIT 4"

type queryOut struct {
	table   *telemetry.Table
	explain *tql.Explain
	err     error
	dur     time.Duration
}

type telemetryOut struct {
	rows             int
	appendDur        time.Duration
	writeDur         time.Duration
	ingest, queryMix time.Duration
	file             []byte
	werr, oerr       error
	queries          []queryOut // fileQueries order, then memQuery
}

func buildTelemetry(seed uint64, small bool) *runner {
	in := genTelemetry(seed, small)
	var want [][][]interface{} // oracle rows per query, computed on first check
	return &runner{
		run:   func(sp *span) *repOut { return &repOut{payload: telemetryRep(sp, in)} },
		check: func(o *repOut) { checkTelemetry(o, in, &want) },
	}
}

// telemetryRep is one ingest + query pass. The file lives in memory, so no
// disk time is in any number.
func telemetryRep(sp *span, in *telemetryInput) *telemetryOut {
	out := &telemetryOut{rows: len(in.step)}
	t0 := time.Now()
	a := sp.child("telemetry", "Append")
	t := telemetry.NewTable(
		telemetry.IntCol("step"), telemetry.IntCol("rank"),
		telemetry.FloatCol("wait"), telemetry.StrCol("policy"),
	)
	for i := range in.step {
		t.Append(in.step[i], in.rank[i], in.wait[i], policyNames[in.policy[i]])
	}
	a.done()
	out.appendDur = time.Since(t0)
	w := sp.child("colfile", "WriteTable")
	var buf bytes.Buffer
	out.werr = colfile.WriteTable(&buf, t, in.chunk)
	w.done()
	out.file = buf.Bytes()
	out.ingest = time.Since(t0)
	out.writeDur = out.ingest - out.appendDur
	if out.werr != nil {
		return out
	}

	t1 := time.Now()
	op := sp.child("colfile", "OpenBytes")
	r, err := colfile.OpenBytes(out.file)
	op.done()
	if out.oerr = err; err != nil {
		return out
	}
	for _, fq := range fileQueries {
		s := sp.child("tql", fq.name)
		q0 := time.Now()
		var qo queryOut
		q, err := tql.Parse(fq.src)
		if err == nil {
			qo.table, qo.explain, err = tql.ExecFileExplain(q, r)
		}
		qo.err, qo.dur = err, time.Since(q0)
		s.done()
		out.queries = append(out.queries, qo)
	}
	h := sp.child("telemetry", "Head")
	head := t.Head(in.memRows)
	h.done()
	s := sp.child("tql", "mem")
	q0 := time.Now()
	var qo queryOut
	qo.table, qo.err = tql.Run(memQuery, map[string]*telemetry.Table{"t": head})
	qo.dur = time.Since(q0)
	s.done()
	out.queries = append(out.queries, qo)
	out.queryMix = time.Since(t1)
	return out
}

func checkTelemetry(o *repOut, in *telemetryInput, want *[][][]interface{}) {
	p := o.payload.(*telemetryOut)
	if !o.op(p.werr, "colfile.WriteTable") || !o.op(p.oerr, "colfile.OpenBytes") {
		return
	}
	if *want == nil {
		*want = oracleAll(in)
	}
	d := newDigester()
	d.bytes(p.file)
	for i, q := range p.queries {
		name := "mem"
		if i < len(fileQueries) {
			name = fileQueries[i].name
		}
		if !o.op(q.err, "query "+name) {
			continue
		}
		o.op(matchRows(q.table, (*want)[i]), "oracle "+name)
		o.op(d.table(q.table), "digest "+name)
	}
	o.digest = d.sum()
}
