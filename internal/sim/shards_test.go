package sim

import (
	"cmp"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"amrtools/internal/check"
	"amrtools/internal/metrics"
	"amrtools/internal/xrand"
)

// recordingSink captures delivery order on one engine.
type recordingSink struct {
	got [][3]int32 // (src, dst, tag) in execution order
}

func (s *recordingSink) DeliverMsg(src, dst, tag int32, bytes int64, local bool) {
	s.got = append(s.got, [3]int32{src, dst, tag})
}

func TestShardsRunSleepers(t *testing.T) {
	s := NewShards(3, 1e-6)
	for i := 0; i < 3; i++ {
		d := float64(i+1) * 1e-3
		s.Engine(i).Spawn("p", func(p *Proc) {
			for k := 0; k < 4; k++ {
				p.Sleep(d)
			}
		})
	}
	end := s.Run()
	if want := 4 * 3e-3; math.Abs(end-want) > 1e-12 {
		t.Fatalf("makespan %v, want %v", end, want)
	}
	// 4 sleep-resume events per proc plus the spawn start event.
	if ev := s.Events(); ev != 3*5 {
		t.Fatalf("events = %d, want 15", ev)
	}
	if len(s.Blocked()) != 0 {
		t.Fatalf("blocked procs after drain")
	}
	s.Close()
}

// burstResult is everything burstProgram can observe of a run.
type burstResult struct {
	end    Time
	events int64
	recvd  [4][]burstRecv // per destination rank, in delivery order
}

type burstRecv struct {
	t        Time
	src, tag int32
}

// burstSink logs one engine's deliveries into the destination rank's slot.
type burstSink struct {
	eng *Engine
	res *burstResult
}

func (b burstSink) DeliverMsg(src, dst, tag int32, bytes int64, local bool) {
	b.res.recvd[dst] = append(b.res.recvd[dst], burstRecv{b.eng.Now(), src, tag})
}

// burstRounds is the number of BSP rounds burstProgram runs.
const burstRounds = 3

// burstProgram runs four ranks (rank r on shard r*nshards/4) through
// burstRounds BSP rounds that make the next window big in the two ways the coordinator
// can: every rank computes for the same time and stages fan deliveries to
// the rank two places on, all landing at one instant on every shard (one
// merge of 4*fan); then, after a rank-specific second compute, joins a
// barrier that an OnMerge hook releases through InjectAt once all four
// arrived. It returns what the run computed and how many windows forked.
func burstProgram(nshards, fan int) (burstResult, int64) {
	const ranks, rounds = 4, burstRounds
	s := NewShards(nshards, 1e-6)
	defer s.Close()
	ms := metrics.NewRunSet(ranks, 1, nil)
	s.SetMetrics(ms.Sched)
	var res burstResult
	for _, e := range s.Engines() {
		e.SetSink(burstSink{e, &res})
	}
	shardOf := func(r int) int { return r * nshards / ranks }

	// A four-rank barrier, the way the MPI layer builds one: arrivals park in
	// the arriving shard's outbox, the merge hook collects them.
	arrived := make([][]int, nshards)
	futs := make([]Future, ranks)
	waiting := 0
	s.OnMerge(func(horizon Time) {
		for sh := range arrived {
			waiting += len(arrived[sh])
			arrived[sh] = arrived[sh][:0]
		}
		if waiting < ranks {
			return
		}
		waiting = 0
		for sh := 0; sh < nshards; sh++ {
			sh := sh
			s.InjectAt(sh, horizon+1e-4, func() {
				for r := range futs {
					if shardOf(r) == sh {
						futs[r].Complete(s.Engine(sh))
					}
				}
			})
		}
		s.AddCoordinatorEvents(1)
	})

	for r := 0; r < ranks; r++ {
		r, sh := r, shardOf(r)
		s.Engine(sh).Spawn("rank", func(p *Proc) {
			dst := (r + 2) % ranks
			for round := 0; round < rounds; round++ {
				p.Sleep(1e-3)
				for k := 0; k < fan; k++ {
					s.StageDelivery(sh, shardOf(dst), p.Now()+1e-3, int32(r), int32(dst), int32(round), 8, int64(round*fan+k))
				}
				p.Sleep(2e-3 + float64(r)*1e-5)
				futs[r].Reset()
				arrived[sh] = append(arrived[sh], r)
				p.Await(&futs[r])
			}
		})
	}
	res.end = s.Run()
	res.events = s.Events()
	return res, ms.Sched.ParallelWindows.Value()
}

// TestShardsForkRule: a window forks only when the merge before it injected
// at least forkMinStaged deliveries or a hook released a collective through
// InjectAt — never on one P — and how a window ran never shows in the
// results, which equal the one-shard run's for every shard count.
func TestShardsForkRule(t *testing.T) {
	const rounds = burstRounds
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base, forks := burstProgram(1, forkMinStaged/4)
	if forks != 0 {
		t.Fatalf("one shard forked %d windows", forks)
	}
	if base.events == 0 || len(base.recvd[3]) != rounds*forkMinStaged/4 {
		t.Fatalf("degenerate base run: %d events, rank 3 received %d", base.events, len(base.recvd[3]))
	}
	for _, tc := range []struct {
		name               string
		procs, shards, fan int
		wantForks          int64
	}{
		// Each round: one merge of 4*fan deliveries, one barrier release.
		{"merge at the threshold and release both fork", 2, 2, forkMinStaged / 4, 2 * rounds},
		{"four shards", 2, 4, forkMinStaged / 4, 2 * rounds},
		{"merge one below the threshold does not", 2, 2, forkMinStaged/4 - 1, rounds},
		{"one P never forks", 1, 2, forkMinStaged / 4, 0},
	} {
		runtime.GOMAXPROCS(tc.procs)
		got, forks := burstProgram(tc.shards, tc.fan)
		if forks != tc.wantForks {
			t.Errorf("%s: %d windows forked, want %d", tc.name, forks, tc.wantForks)
		}
		if tc.fan == forkMinStaged/4 && !reflect.DeepEqual(got, base) {
			t.Errorf("%s: results differ from the one-shard run: (%v, %d) vs (%v, %d)",
				tc.name, got.end, got.events, base.end, base.events)
		}
	}
}

// TestShardsForkedPanic: two shards panic in one forked window. The lowest
// panicking shard's value must surface — the inline path's abort point —
// whichever goroutine got there first, and the fork must have been joined: no
// goroutine outlives Run.
func TestShardsForkedPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := runtime.NumGoroutine()
	s := NewShards(3, 1e-6)
	defer s.Close()
	started := make(chan struct{})
	injected := false
	s.OnMerge(func(horizon Time) {
		if injected {
			return
		}
		injected = true
		// Shard 0 waits for shard 1 to start: only a forked window gets past.
		s.InjectAt(0, 1e-3, func() {
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Error("the window after an InjectAt ran inline")
			}
		})
		s.InjectAt(1, 1e-3, func() {
			close(started)
			panic("shard 1")
		})
		s.InjectAt(2, 1e-3, func() { panic("shard 2") })
	})
	func() {
		defer func() {
			if r := recover(); r != "shard 1" {
				t.Errorf("recovered %v, want the lowest panicking shard's value %q", r, "shard 1")
			}
		}()
		s.Run()
		t.Error("Run returned past a panicking window")
	}()
	// forkWindow returns only after wg.Wait, and a goroutine's exit trails its
	// Done by a few instructions.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Errorf("%d goroutines after the panic, %d before the run", n, before)
	}
}

// TestMergeStagedOrder: staged deliveries must inject in (t, src, seq) order
// regardless of the order shards staged them, fixing the destination heap's
// tie-break sequence for any shard count.
func TestMergeStagedOrder(t *testing.T) {
	s := NewShards(2, 1e-3)
	sink := &recordingSink{}
	for _, e := range s.Engines() {
		e.SetSink(sink)
	}
	// Stage out of order: same time from both shards, differing src/seq.
	s.StageDelivery(1, 0, 5e-3, 7, 0, 3, 10, 1)
	s.StageDelivery(1, 0, 5e-3, 7, 0, 4, 10, 0)
	s.StageDelivery(0, 0, 5e-3, 2, 0, 1, 10, 0)
	s.StageDelivery(0, 0, 2e-3, 9, 0, 2, 10, 0)
	s.Run()
	want := [][3]int32{{9, 0, 2}, {2, 0, 1}, {7, 0, 4}, {7, 0, 3}}
	if len(sink.got) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(sink.got), len(want))
	}
	for i := range want {
		if sink.got[i] != want[i] {
			t.Fatalf("delivery %d = %v, want %v (full order %v)", i, sink.got[i], want[i], sink.got)
		}
	}
}

// drawMerge deals one randomized merge input: the staging buffers of 1–4
// shards, each a concatenation of ascending, descending or unordered pieces,
// over a few sources and a few distinct times so that equal-time ties across
// sources are common. tag is each delivery's index in staging order; (src,
// seq) is unique, as the MPI layer's per-source counter makes it.
func drawMerge(src *progSrc) [][]stagedMsg {
	nsh := 1 + src.next()%4
	bufs := make([][]stagedMsg, nsh)
	var next [5]int64
	var tag int32
	for sh := range bufs {
		for pieces := src.next() % 4; pieces > 0; pieces-- {
			shape, n := src.next()%3, 1+src.next()%10
			piece := make([]stagedMsg, n)
			for i := range piece {
				from := src.next() % len(next)
				piece[i] = stagedMsg{
					t:   float64(1+src.next()%6) * 1e-3,
					seq: next[from], src: int32(from), dst: int32(src.next() % 8), tag: tag,
					dstShard: int32(src.next() % nsh),
				}
				next[from]++
				tag++
			}
			switch shape {
			case 0:
				slices.SortFunc(piece, cmpStaged)
			case 1:
				slices.SortFunc(piece, func(a, b stagedMsg) int { return cmpStaged(b, a) })
			}
			bufs[sh] = append(bufs[sh], piece...)
		}
	}
	return bufs
}

// cmpStaged is the merge key as a three-way comparison: the sort oracle's.
func cmpStaged(a, b stagedMsg) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// checkMerge stages bufs — the even destination ranks addressed to a process on
// their shard, the odd ones without one — merges it once, and asserts that
// every destination engine was injected the oracle's order: the sorted
// staged deliveries bound for that shard, in sequence-number order whether
// they joined a lane or went on the heap.
func checkMerge(t testing.TB, bufs [][]stagedMsg) {
	s := NewShards(len(bufs), 1e-6)
	s.SetParanoid(true)
	defer s.Close()
	procs := make([][]*Proc, len(bufs))
	for sh, e := range s.Engines() {
		e.SetSink(nopSink{})
		for r := 0; r < 8; r += 2 {
			procs[sh] = append(procs[sh], e.Spawn("rank", func(p *Proc) { p.Await(&Future{}) }))
		}
	}
	var want []stagedMsg
	for sh, buf := range bufs {
		for _, m := range buf {
			var to *Proc
			if m.dst%2 == 0 {
				to = procs[m.dstShard][m.dst/2]
			}
			s.StageDeliveryTo(sh, int(m.dstShard), to, m.t, m.src, m.dst, m.tag, 8, m.seq)
		}
		want = append(want, buf...)
	}
	slices.SortFunc(want, cmpStaged)
	s.mergeStaged()
	for sh, e := range s.Engines() {
		var wantTags []int32
		for _, m := range want {
			if int(m.dstShard) == sh {
				wantTags = append(wantTags, m.tag)
			}
		}
		if got := injectedTags(e); !slices.Equal(got, wantTags) {
			t.Fatalf("shard %d injected tags %v, sort oracle %v (staged %v)", sh, got, wantTags, bufs)
		}
	}
	for i := range s.out {
		if len(s.out[i]) != 0 {
			t.Fatalf("shard %d staging buffer holds %d deliveries after the merge", i, len(s.out[i]))
		}
	}
}

// injectedTags lists the tags of e's pending deliveries, heap and lanes, in
// the order they were scheduled.
func injectedTags(e *Engine) []int32 {
	type pending struct {
		seq int64
		tag int32
	}
	var ps []pending
	for _, ev := range e.pq {
		if ev.idx >= 0 && e.bodies[ev.idx].kind == evMsg {
			ps = append(ps, pending{ev.seq, e.bodies[ev.idx].tag})
		}
	}
	for i := range e.lanes {
		for k := range e.lanes[i].msg {
			l := &e.lanes[i].msg[k]
			for j := 0; j < l.n; j++ {
				m := &l.buf[(l.head+j)&(len(l.buf)-1)]
				ps = append(ps, pending{m.seq, m.tag})
			}
		}
	}
	slices.SortFunc(ps, func(a, b pending) int { return cmp.Compare(a.seq, b.seq) })
	tags := make([]int32, 0, len(ps))
	for _, p := range ps {
		tags = append(tags, p.tag)
	}
	return tags
}

// TestMergeMatchesSortOracle: on random staging buffers of 1–4 shards the
// run merge injects exactly the order slices.SortFunc gives on (t, src,
// seq), and the draws cover what a run merge can get wrong: equal-time ties
// across sources, descending and single-element runs, empty shards and a
// shard that is one run.
func TestMergeMatchesSortOracle(t *testing.T) {
	rng := xrand.New(33)
	var ties, desc, single, empty, oneRun int
	for i := 0; i < 2000; i++ {
		data := make([]byte, 256)
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		bufs := drawMerge(&progSrc{data: data})
		checkMerge(t, bufs)
		var all []stagedMsg
		for _, buf := range bufs {
			all = append(all, buf...)
			if len(buf) == 0 {
				empty++
				continue
			}
			runs := runLengths(buf)
			if len(runs) == 1 {
				oneRun++
			}
			if slices.Contains(runs, 1) {
				single++
			}
			for j := 2; j < len(buf); j++ {
				if cmpStaged(buf[j], buf[j-1]) < 0 && cmpStaged(buf[j-1], buf[j-2]) < 0 {
					desc++
					break
				}
			}
		}
		slices.SortFunc(all, cmpStaged)
		for j := 1; j < len(all); j++ {
			if all[j].t == all[j-1].t && all[j].src != all[j-1].src {
				ties++
				break
			}
		}
	}
	for name, n := range map[string]int{"equal-time ties across sources": ties, "descending runs": desc,
		"single-element runs": single, "empty shards": empty, "one-run shards": oneRun} {
		if n == 0 {
			t.Errorf("the draws never produced %s", name)
		}
	}
}

// runLengths returns the lengths of buf's maximal ascending runs.
func runLengths(buf []stagedMsg) []int {
	var runs []int
	start := 0
	for j := 1; j <= len(buf); j++ {
		if j == len(buf) || cmpStaged(buf[j], buf[j-1]) < 0 {
			runs = append(runs, j-start)
			start = j
		}
	}
	return runs
}

// FuzzMergeStaged drives drawMerge with arbitrary bytes; `go test` alone
// replays the seeds.
func FuzzMergeStaged(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 9, 0, 2, 0, 0, 1, 2, 0, 0})
	f.Add([]byte{3, 3, 1, 9, 2, 4, 1, 0, 0, 3, 2, 1, 5, 6, 7, 0, 2, 2, 8, 4, 4, 1, 1, 1, 2, 0, 3})
	f.Add([]byte{2, 0, 2, 2, 5, 1, 1, 7, 3, 2, 2, 0, 9, 1, 0, 1, 4, 2, 2, 3, 8, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMerge(t, drawMerge(&progSrc{data: data}))
	})
}

// TestInjectBeforeHorizonViolation: coordinator work landing before the
// merged horizon would rewrite executed history; the always-on audit must
// raise a structured window-safety violation.
func TestInjectBeforeHorizonViolation(t *testing.T) {
	s := NewShards(2, 1e-6)
	s.horizon = 5e-3
	v, ok := check.Catch(func() { s.InjectAt(0, 1e-3, func() {}) })
	if !ok {
		t.Fatal("late injection did not panic with a violation")
	}
	if v.Layer != "sim" || v.Invariant != "window-safety" {
		t.Fatalf("violation = %s/%s, want sim/window-safety", v.Layer, v.Invariant)
	}
}

// TestStageWithinLookaheadViolation: a cross-shard delivery closer than the
// lookahead to its source clock breaks the conservative guarantee, and one
// addressed to a process on another shard would be merged into the wrong
// engine's lanes; the paranoid stage-time audit must catch both at the
// source.
func TestStageWithinLookaheadViolation(t *testing.T) {
	s := NewShards(2, 1e-3)
	s.SetParanoid(true)
	defer s.Close()
	p := s.Engine(0).Spawn("rank0", func(p *Proc) {})
	for _, tc := range []struct {
		name, invariant string
		stage           func()
	}{
		{"within lookahead", "window-safety", func() { s.StageDelivery(0, 1, 1e-6, 0, 1, 0, 10, 0) }}, // t << lookahead
		{"process on another shard", "staged-destination", func() { s.StageDeliveryTo(0, 1, p, 1, 0, 1, 0, 10, 0) }},
	} {
		v, ok := check.Catch(tc.stage)
		if !ok {
			t.Fatalf("%s: staging did not panic with a violation", tc.name)
		}
		if v.Layer != "sim" || v.Invariant != tc.invariant {
			t.Fatalf("%s: violation = %s/%s, want sim/%s", tc.name, v.Layer, v.Invariant, tc.invariant)
		}
	}
}

// TestMergedDeliveryBeforeHorizonViolation: the merge-time audit is the
// always-on backstop for deliveries staged in breach of the lookahead bound
// outside paranoid mode.
func TestMergedDeliveryBeforeHorizonViolation(t *testing.T) {
	s := NewShards(2, 1e-3)
	sink := &recordingSink{}
	for _, e := range s.Engines() {
		e.SetSink(sink)
	}
	s.horizon = 5e-3
	s.StageDelivery(0, 1, 1e-3, 0, 1, 0, 10, 0)
	v, ok := check.Catch(func() { s.mergeStaged() })
	if !ok {
		t.Fatal("pre-horizon merge did not panic with a violation")
	}
	if v.Layer != "sim" || v.Invariant != "window-safety" {
		t.Fatalf("violation = %s/%s, want sim/window-safety", v.Layer, v.Invariant)
	}
}

func TestShardsSilentEventAccounting(t *testing.T) {
	s := NewShards(2, 1e-6)
	fired := 0
	s.InjectAt(1, 1e-3, func() { fired++ })
	s.AddCoordinatorEvents(1)
	s.Run()
	if fired != 1 {
		t.Fatalf("silent injection fired %d times", fired)
	}
	// The silent event itself is uncounted; only the coordinator accounting
	// shows up, so Events is shard-count independent.
	if ev := s.Events(); ev != 1 {
		t.Fatalf("events = %d, want 1 (coordinator-accounted only)", ev)
	}
}

func TestShardsInterrupt(t *testing.T) {
	s := NewShards(2, 1e-6)
	s.Engine(0).Spawn("p", func(p *Proc) {
		for {
			p.Sleep(1e-3)
		}
	})
	s.SetInterrupt(func() bool { return true })
	defer func() {
		if r := recover(); r != error(ErrInterrupted) {
			t.Fatalf("recovered %v, want ErrInterrupted", r)
		}
		s.Close()
	}()
	s.Run()
	t.Fatal("interrupted Run returned")
}

// TestShardsBlockedAggregates: a proc stuck on a never-completed future must
// surface through Blocked after the scheduler drains.
func TestShardsBlockedAggregates(t *testing.T) {
	s := NewShards(2, 1e-6)
	var fut Future
	s.Engine(1).Spawn("stuck", func(p *Proc) { p.Await(&fut) })
	s.Run()
	blocked := s.Blocked()
	if len(blocked) != 1 || blocked[0].Name() != "stuck" {
		t.Fatalf("blocked = %v", blocked)
	}
	s.Close()
}

func TestNewShardsRejectsBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewShards(0, 1e-6) },
		func() { NewShards(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad NewShards args accepted")
				}
			}()
			fn()
		}()
	}
}
