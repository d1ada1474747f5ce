package main

import (
	"fmt"
	"runtime"
	"time"

	"amrtools/internal/colfile"
	"amrtools/internal/driver"
	"amrtools/internal/experiments"
	"amrtools/internal/harness"
	"amrtools/internal/mesh"
	"amrtools/internal/metrics"
	"amrtools/internal/mpi"
	"amrtools/internal/placement"
	"amrtools/internal/sim"
	"amrtools/internal/simnet"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
	"amrtools/internal/trace"
	"amrtools/internal/xrand"
)

// prober runs the fixed per-layer probes of the traced run. Each probe
// calls one layer's public API in a loop sized to tens of milliseconds,
// under a span named after the layer, and records the cost per operation.
// The probes are the same whichever workload is being traced, so a layer
// row means the same thing on every workload.
type prober struct {
	tr    *tracer
	s     samples
	seed  uint64
	small bool
	n     int // probe samples taken; gives each one its own span id
	fails []string
}

// probeSamples is how many times each cheap probe repeats.
const probeSamples = 3

// size shrinks an iteration count for the smoke run.
func (p *prober) size(n int) int {
	if p.small {
		return max(n/50, 8)
	}
	return n
}

// timed runs fn once under a root span and returns its wall time.
func (p *prober) timed(layer, name string, fn func(sp *span)) time.Duration {
	p.n++
	sp := p.tr.root(-p.n, layer, name)
	t0 := time.Now()
	fn(sp)
	d := time.Since(t0)
	sp.done()
	return d
}

// under times fn as a child span of sp.
func under(sp *span, layer, name string, fn func()) time.Duration {
	c := sp.child(layer, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	c.done()
	return d
}

// perOp records probeSamples samples of metric: fn does n operations.
func (p *prober) perOp(metric, layer string, n int, unit time.Duration, fn func()) {
	for i := 0; i < probeSamples; i++ {
		d := p.timed(layer, metric, func(*span) { fn() })
		p.s.add(metric, float64(d)/float64(unit)/float64(n))
	}
}

func (p *prober) fail(format string, args ...interface{}) {
	p.fails = append(p.fails, fmt.Sprintf(format, args...))
}

func (p *prober) all() {
	p.simProbes()
	p.simnetProbes()
	p.mpiProbes()
	p.meshProbes()
	p.placementProbes()
	p.harnessProbes()
	p.telemetryProbes()
	p.observabilityProbes()
}

// --- sim ---

// pingSink bounces a message between shards: every delivery stages the next
// hop one lookahead ahead, so each hop costs one window and one merge.
type pingSink struct {
	s     *sim.Shards
	shard int
	left  *int
	seq   int64
}

func (k *pingSink) DeliverMsg(src, dst, tag int32, bytes int64, local bool) {
	if *k.left == 0 {
		return
	}
	*k.left--
	next := (k.shard + 1) % k.s.NumShards()
	k.seq++
	k.s.StageDelivery(k.shard, next, k.s.Engine(k.shard).Now()+k.s.Lookahead(),
		int32(k.shard), int32(next), 0, 8, k.seq)
}

func (p *prober) simProbes() {
	events := p.size(1_000_000)
	p.perOp("sim.event_ns", "sim", events, time.Nanosecond, func() {
		e := sim.NewEngine()
		n := 0
		var step func()
		step = func() {
			if n++; n < events {
				e.After(1, step)
			}
		}
		e.After(1, step)
		e.Run()
	})

	switches := p.size(200_000)
	p.perOp("sim.proc_switch_ns", "sim", switches, time.Nanosecond, func() {
		e := sim.NewEngine()
		e.Spawn("p", func(pr *sim.Proc) {
			for i := 0; i < switches; i++ {
				pr.Sleep(1)
			}
		})
		e.Run()
	})

	hops := p.size(100_000)
	nsh := max(2, runtime.GOMAXPROCS(0))
	p.perOp("sim.shards_event_ns", "sim", hops, time.Nanosecond, func() {
		s := sim.NewShards(nsh, 1e-6)
		left := hops - 1
		for i, e := range s.Engines() {
			e.SetSink(&pingSink{s: s, shard: i, left: &left})
		}
		s.StageDelivery(0, 1, 1e-6, 0, 1, 0, 8, 0)
		s.Run()
		s.Close()
		if left != 0 {
			p.fail("sim.shards_event_ns: %d hops undelivered", left)
		}
	})

	// Paired Shards=1 / Shards=n runs of the sedov_sharded configuration,
	// shortened; order alternates so drift cancels.
	dims, steps := [3]int{8, 8, 8}, 5
	if p.small {
		dims, steps = [3]int{2, 4, 4}, 3
	}
	run := func(sp *span, shards int) float64 {
		cfg := driver.DefaultConfig(dims, 2, steps, placement.CPLX{X: 50}, p.seed)
		cfg.Shards = shards
		r, err := runDriver(sp, fmt.Sprintf("shards=%d", shards), cfg)
		if err != nil {
			p.fail("sim.shard_speedup: %v", err)
		}
		return r.wall.Seconds()
	}
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < 2; i++ {
		p.timed("bench", "sim.shard_speedup", func(sp *span) {
			var one, many float64
			if i%2 == 0 {
				one, many = run(sp, 1), run(sp, n)
			} else {
				many, one = run(sp, n), run(sp, 1)
			}
			p.s.add("sim.shard_speedup", one/many)
		})
	}
}

// --- simnet ---

func (p *prober) simnetProbes() {
	sends := p.size(200_000)
	plan := func(metric string, cfg simnet.Config, dst int) {
		p.perOp(metric, "simnet", sends, time.Nanosecond, func() {
			net := simnet.New(sim.NewEngine(), cfg)
			for i := 0; i < sends; i++ {
				net.DeliveryDone(0, net.PlanSend(0, dst, 1024))
			}
		})
	}
	plan("simnet.plan_local_ns", simnet.Tuned(4, 16, p.seed), 1)
	plan("simnet.plan_remote_ns", simnet.Tuned(4, 16, p.seed), 16)

	// Untuned fabric: local sends held in flight past the shared-memory
	// queue depth (contention path) interleaved with remote sends (ACK-loss
	// draws).
	cfg := simnet.Untuned(4, 16, p.seed)
	inflight := make([]simnet.SendPlan, cfg.ShmQueueDepth+8)
	p.perOp("simnet.plan_faulty_ns", "simnet", sends, time.Nanosecond, func() {
		net := simnet.New(sim.NewEngine(), cfg)
		for i := range inflight {
			inflight[i] = net.PlanSend(0, 1, 1024)
		}
		for i := 0; i < sends; i += 2 {
			slot := (i / 2) % len(inflight)
			net.DeliveryDone(0, inflight[slot])
			inflight[slot] = net.PlanSend(0, 1, 1024)
			net.PlanSend(0, 16, 1024)
		}
	})
}

// --- mpi ---

// quietWorld is a fault-free world, so a probe times the mpi layer and not
// a fabric fault.
func quietWorld(nodes, rpn int) (*sim.Engine, *simnet.Network, *mpi.World) {
	cfg := simnet.Tuned(nodes, rpn, 1)
	cfg.AckLossProb = 0
	cfg.Jitter = 0
	eng := sim.NewEngine()
	net := simnet.New(eng, cfg)
	return eng, net, mpi.NewWorld(eng, net)
}

func stream(w *mpi.World, msgs int) {
	w.Spawn(0, func(c *mpi.Comm) {
		for m := 0; m < msgs; m++ {
			c.Wait(c.Isend(1, 0, 1024))
		}
	})
	w.Spawn(1, func(c *mpi.Comm) {
		for m := 0; m < msgs; m++ {
			c.Wait(c.Irecv(0, 0))
		}
	})
}

func (p *prober) mpiProbes() {
	msgs := p.size(32_768)
	p.perOp("mpi.stream_msg_ns", "mpi", msgs, time.Nanosecond, func() {
		eng, _, w := quietWorld(1, 2)
		stream(w, msgs)
		eng.Run()
	})
	p.perOp("mpi.observed_msg_ns", "mpi", msgs, time.Nanosecond, func() {
		eng, net, w := quietWorld(1, 2)
		tr := trace.NewRecorder(2, 2, trace.Config{})
		set := metrics.NewRunSet(2, 1, nil)
		w.SetTracer(tr)
		w.SetMetrics(set.MPI)
		net.SetTracer(tr)
		net.SetMetrics(set.Net)
		stream(w, msgs)
		eng.Run()
	})

	trips := p.size(16_384)
	p.perOp("mpi.roundtrip_ns", "mpi", trips, time.Nanosecond, func() {
		eng, _, w := quietWorld(2, 1)
		w.Spawn(0, func(c *mpi.Comm) {
			for m := 0; m < trips; m++ {
				c.Wait(c.Isend(1, 0, 64))
				c.Wait(c.Irecv(1, 1))
			}
		})
		w.Spawn(1, func(c *mpi.Comm) {
			for m := 0; m < trips; m++ {
				c.Wait(c.Irecv(0, 0))
				c.Wait(c.Isend(0, 1, 64))
			}
		})
		eng.Run()
	})

	// Fan-in: 16 senders x 26 tags into rank 0 each round — a block's full
	// neighbor stencil arriving at one receiver, the match-queue case.
	const senders, tags = 16, 26
	rounds := p.size(128)
	p.perOp("mpi.fanin_msg_ns", "mpi", rounds*senders*tags, time.Nanosecond, func() {
		eng, _, w := quietWorld(2, 16)
		w.Spawn(0, func(c *mpi.Comm) {
			reqs := make([]*mpi.Request, 0, senders*tags)
			for r := 0; r < rounds; r++ {
				reqs = reqs[:0]
				for s := 1; s <= senders; s++ {
					for t := 0; t < tags; t++ {
						reqs = append(reqs, c.Irecv(s, t))
					}
				}
				c.WaitAll(reqs)
			}
		})
		for s := 1; s <= senders; s++ {
			w.Spawn(s, func(c *mpi.Comm) {
				reqs := make([]*mpi.Request, 0, tags)
				for r := 0; r < rounds; r++ {
					reqs = reqs[:0]
					for t := 0; t < tags; t++ {
						reqs = append(reqs, c.Isend(0, t, 512))
					}
					c.WaitAll(reqs)
				}
			})
		}
		eng.Run()
	})

	crounds := p.size(4096)
	collective := func(metric string, body func(c *mpi.Comm)) {
		p.perOp(metric, "mpi", crounds, time.Nanosecond, func() {
			eng, _, w := quietWorld(1, 16)
			for r := 0; r < 16; r++ {
				w.Spawn(r, func(c *mpi.Comm) {
					for m := 0; m < crounds; m++ {
						body(c)
					}
				})
			}
			eng.Run()
		})
	}
	collective("mpi.barrier_round_ns", func(c *mpi.Comm) { c.Barrier() })
	collective("mpi.allreduce_round_ns", func(c *mpi.Comm) { c.AllreduceSum(1) })
}

// --- mesh ---

// shell is a Sedov-like refinement predicate: a spherical shell around the
// domain centre.
func shell(centre float64) func(id mesh.BlockID) bool {
	return func(id mesh.BlockID) bool {
		c := id.Center()
		r := 0.0
		for k := 0; k < 3; k++ {
			d := c[k] - centre
			r += d * d
		}
		return r > 0.16*centre*centre && r < 0.36*centre*centre
	}
}

func (p *prober) meshProbes() {
	side := 16
	if p.small {
		side = 4
	}
	var m *mesh.Mesh
	for i := 0; i < probeSamples; i++ {
		d := p.timed("mesh", "mesh.refine_ms", func(*span) {
			m = mesh.NewUniform(side, side, side, 1)
			m.RefineWhere(shell(float64(side) / 2))
		})
		p.s.add("mesh.refine_ms", ms(d))
	}
	leaves := m.Leaves()
	lookups := p.size(200_000)
	p.perOp("mesh.neighbors_ns", "mesh", lookups, time.Nanosecond, func() {
		for i := 0; i < lookups; i++ {
			_ = m.NeighborsOf(leaves[i%len(leaves)].ID)
		}
	})
	for i := 0; i < probeSamples; i++ {
		p.s.add("mesh.adjacency_ms", ms(p.timed("mesh", "mesh.adjacency_ms", func(*span) {
			_ = m.AdjacencyBySFC()
		})))
	}
	// One rank per root block, as scale_4k starts: 4096 ranks on the
	// refined 16^3 mesh.
	nranks := side * side * side
	assign := placement.Baseline{}.Assign(make([]float64, len(leaves)), nranks)
	for i := 0; i < probeSamples; i++ {
		var views []*mesh.RankView
		p.s.add("mesh.rank_views_ms", ms(p.timed("mesh", "mesh.rank_views_ms", func(*span) {
			views = m.BuildRankViews(assign, nranks)
		})))
		total := 0
		for _, v := range views {
			total += v.Bytes()
		}
		p.s.add("mesh.rank_view_bytes", float64(total))
	}
}

// --- placement ---

func (p *prober) placementProbes() {
	scale := 1
	if p.small {
		scale = 16
	}
	rng := xrand.New(p.seed ^ 0x70726f62)
	assign := func(metric string, pol placement.Policy, ranks int, costs []float64) placement.Assignment {
		var a placement.Assignment
		for i := 0; i < probeSamples; i++ {
			p.s.add(metric, ms(p.timed("placement", metric, func(*span) { a = pol.Assign(costs, ranks) })))
		}
		if err := placement.Validate(a, len(costs), ranks); err != nil {
			p.fail("%s: %v", metric, err)
		}
		return a
	}
	r4, r16, r64 := 4096/scale, 16384/scale, 65536/scale
	c4 := placementCosts("heavy", 2*r4, rng.Split())
	c16 := placementCosts("heavy", 2*r16, rng.Split())
	c64 := placementCosts("heavy", 2*r64, rng.Split())
	assign("placement.baseline_16k_ms", placement.Baseline{}, r16, c16)
	assign("placement.lpt_16k_ms", placement.LPT{}, r16, c16)
	assign("placement.cdp_16k_ms", placement.CDP{Restricted: true, ChunkSize: 512}, r16, c16)
	assign("placement.cpl50_4k_ms", placement.CPLX{X: 50, ChunkSize: 512}, r4, c4)
	a := assign("placement.cpl50_16k_ms", placement.CPLX{X: 50, ChunkSize: 512}, r16, c16)
	assign("placement.cpl50_64k_ms", placement.CPLX{X: 50, ChunkSize: 512}, r64, c64)
	assign("placement.cpl100_16k_ms", placement.CPLX{X: 100, ChunkSize: 512}, r16, c16)
	p.s.add("placement.cpl50_makespan_norm",
		placement.Makespan(c16, a, r16)/placement.LowerBound(c16, r16))
}

// --- harness ---

func (p *prober) harnessProbes() {
	dims, steps := [3]int{4, 4, 4}, 10
	if p.small {
		dims, steps = [3]int{2, 2, 4}, 3
	}
	pols := placement.StandardSuite(0)[:4]
	campaign := func(sp *span, workers int) (wall, runs float64) {
		rec := harness.NewRecorder()
		for _, r := range sweepCampaign(sp, pols, dims, steps, p.seed, workers, rec) {
			if r.Err != nil {
				p.fail("harness probe: %v", r.Err)
			}
		}
		t := rec.Table()
		for r := 0; r < t.NumRows(); r++ {
			if t.Strings("spec")[r] == harness.CampaignRow {
				wall += t.Floats("wall_ms")[r]
			} else {
				runs += t.Floats("wall_ms")[r]
			}
		}
		return wall, runs
	}
	for i := 0; i < probeSamples; i++ {
		p.timed("bench", "harness.j_speedup", func(sp *span) {
			serial, runs := campaign(sp, 1)
			parallel, _ := campaign(sp, runtime.GOMAXPROCS(0))
			p.s.add("harness.overhead_ms", serial-runs)
			p.s.add("harness.j_speedup", serial/parallel)
		})
	}
}

// --- telemetry, colfile, tql ---

func (p *prober) telemetryProbes() {
	in := genTelemetry(p.seed, p.small)
	var out *telemetryOut
	// One traced telemetry_query repetition gives the ingest and per-query
	// rows at the workload's own size.
	for i := 0; i < 2; i++ {
		p.timed("bench", "telemetry_query rep", func(sp *span) { out = telemetryRep(sp, in) })
		if out.werr != nil || out.oerr != nil {
			p.fail("telemetry probe: write %v, open %v", out.werr, out.oerr)
			return
		}
		rows := float64(out.rows)
		p.s.add("telemetry.append_ns_per_row", float64(out.appendDur)/rows)
		p.s.add("colfile.write_ns_per_row", float64(out.writeDur)/rows)
		p.s.add("colfile.bytes_per_row", float64(len(out.file))/rows)
		p.s.add("telemetry.ingest_s", out.ingest.Seconds())
		p.s.add("tql.query_mix_s", out.queryMix.Seconds())
		scanned, skipped, fallbacks := 0, 0, 0
		for j, fq := range fileQueries {
			q := out.queries[j]
			if q.err != nil {
				p.fail("telemetry probe: query %s: %v", fq.name, q.err)
				return
			}
			p.s.add(fq.metric, float64(q.dur)/float64(fq.unit))
			scanned += q.explain.ChunksScanned
			skipped += q.explain.ChunksSkipped
			if q.explain.Fallback != "" {
				fallbacks++
			}
		}
		p.s.add("tql.q_mem_ms", ms(out.queries[len(fileQueries)].dur))
		p.s.add("tql.chunks_scanned", float64(scanned))
		p.s.add("tql.chunks_skipped", float64(skipped))
		p.s.add("tql.fallbacks", float64(fallbacks))
	}

	parses := p.size(2000)
	p.perOp("tql.parse_us", "tql", parses, time.Microsecond, func() {
		for i := 0; i < parses; i++ {
			if _, err := tql.Parse(fileQueries[i%len(fileQueries)].src); err != nil {
				p.fail("tql.parse_us: %v", err)
				return
			}
		}
	})

	opens := p.size(2000)
	p.perOp("colfile.open_us", "colfile", opens, time.Microsecond, func() {
		for i := 0; i < opens; i++ {
			if _, err := colfile.OpenBytes(out.file); err != nil {
				p.fail("colfile.open_us: %v", err)
				return
			}
		}
	})
	r, err := colfile.OpenBytes(out.file)
	if err != nil {
		p.fail("colfile probes: %v", err)
		return
	}
	p.perOp("colfile.decode_chunk_us", "colfile", r.NumChunks(), time.Microsecond, func() {
		for i := 0; i < r.NumChunks(); i++ {
			if _, err := r.DecodeChunk(i); err != nil {
				p.fail("colfile.decode_chunk_us: %v", err)
				return
			}
		}
	})
	want := make([]bool, len(r.Schema()))
	want[r.ColIndex("wait")] = true
	p.perOp("colfile.decode_col_us", "colfile", r.NumChunks(), time.Microsecond, func() {
		for i := 0; i < r.NumChunks(); i++ {
			if _, _, err := r.DecodeColumns(i, want); err != nil {
				p.fail("colfile.decode_col_us: %v", err)
				return
			}
		}
	})

	t, err := r.Table()
	if err != nil {
		p.fail("telemetry probes: %v", err)
		return
	}
	t = t.Head(len(in.step) / 5)
	for i := 0; i < probeSamples; i++ {
		p.s.add("telemetry.groupby_ms", ms(p.timed("telemetry", "telemetry.groupby_ms", func(*span) {
			_ = t.GroupBy([]string{"rank"}, []telemetry.AggSpec{{Func: telemetry.Sum, Col: "wait"}})
		})))
		p.s.add("telemetry.sort_ms", ms(p.timed("telemetry", "telemetry.sort_ms", func(*span) {
			_ = t.SortBy("wait", true)
		})))
	}
}

// --- trace, metrics ---

func (p *prober) observabilityProbes() {
	dims, steps := experiments.QuickScale.RootDims, 10
	if p.small {
		dims, steps = [3]int{2, 2, 4}, 3
	}
	run := func(sp *span, name string, arm func(cfg *driver.Config)) (float64, *driver.Result) {
		cfg := driver.DefaultConfig(dims, 2, steps, placement.CPLX{X: 50}, p.seed)
		arm(&cfg)
		r, err := runDriver(sp, name, cfg)
		if err != nil {
			p.fail("observability probe %s: %v", name, err)
			return 1, &driver.Result{}
		}
		return r.wall.Seconds(), r.res
	}
	for i := 0; i < probeSamples; i++ {
		p.timed("bench", "observability pairs", func(sp *span) {
			off, _ := run(sp, "plain", func(*driver.Config) {})
			traced, tres := run(sp, "trace", func(c *driver.Config) { c.Trace = &trace.Config{} })
			metered, mres := run(sp, "metrics", func(c *driver.Config) { c.Metrics = &metrics.Config{} })
			p.s.add("trace.enabled_overhead_pct", 100*(traced-off)/off)
			p.s.add("metrics.enabled_overhead_pct", 100*(metered-off)/off)
			if tres.Spans == nil || mres.Metrics == nil {
				return
			}
			p.s.add("trace.spans", float64(tres.Spans.Len()))
			p.s.add("trace.table_ms", ms(under(sp, "trace", "Table", func() { _ = tres.Spans.Table() })))
			p.s.add("metrics.snapshot_us", us(under(sp, "metrics", "Snapshot", func() { _ = mres.Metrics.Reg.Snapshot() })))
		})
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
