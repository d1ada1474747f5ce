package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"amrtools/internal/check"
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

// TestShardsWindowPanic: shards 0 and 1 panic in the same window. Shards run
// in shard order, so shard 0's value surfaces and shard 1's window never
// starts.
func TestShardsWindowPanic(t *testing.T) {
	s := NewShards(3, 1e-6)
	defer s.Close()
	injected, ran1 := false, false
	s.OnMerge(func(horizon Time) {
		if injected {
			return
		}
		injected = true
		s.InjectAt(0, 1e-3, func() { panic("shard 0") })
		s.InjectAt(1, 1e-3, func() {
			ran1 = true
			panic("shard 1")
		})
		s.InjectAt(2, 1e-3, func() {})
	})
	func() {
		defer func() {
			if r := recover(); r != "shard 0" {
				t.Errorf("recovered %v, want the lowest panicking shard's value %q", r, "shard 0")
			}
		}()
		s.Run()
		t.Error("Run returned past a panicking window")
	}()
	if ran1 {
		t.Error("shard 1 ran its window after shard 0 panicked")
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

// drawMerge deals one randomized merge input: what 1–4 shards stage, shard
// by shard, each a concatenation of ascending, descending or unordered pieces,
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
	if len(s.out) != 0 {
		t.Fatalf("the staging buffer holds %d deliveries after the merge", len(s.out))
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

// TestMergeMatchesSortOracle: on random staging from 1–4 shards the
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
