package mpi

import (
	"fmt"
	"math"
	"testing"

	"amrtools/internal/check"
	"amrtools/internal/sim"
	"amrtools/internal/simnet"
	"amrtools/internal/xrand"
)

// matchOracle runs a matchIndex beside a map of plain FIFOs fed the same
// deliver/post stream. Every operation must return what the oracle's FIFO
// yields, and check verifies the table's layout against the oracle.
type matchOracle struct {
	x      matchIndex
	queues map[msgKey]*oracleFIFO
	bytes  int64 // next arrival payload: unique per delivery
	reqs   int   // receives posted so far

	grows, wrappedDeletes int
	spills                [2]int // second elements queued: [arrivals, receives]
}

// oracleFIFO is one key's reference state: at most one side non-empty.
type oracleFIFO struct {
	arrivals []int64
	recvs    []*Request
}

func newMatchOracle() *matchOracle { return &matchOracle{queues: map[msgKey]*oracleFIFO{}} }

func (o *matchOracle) fifo(key msgKey) *oracleFIFO {
	q := o.queues[key]
	if q == nil {
		q = &oracleFIFO{}
		o.queues[key] = q
	}
	return q
}

// noteRemoval records, before an operation that will empty key's queue,
// whether the backward shift runs across the end of the slot array.
func (o *matchOracle) noteRemoval(key msgKey) {
	i := o.x.find(key)
	mask := len(o.x.slots) - 1
	for j := i; o.x.slots[j].n != 0; j = (j + 1) & mask {
		if j == mask && o.x.slots[0].n != 0 {
			o.wrappedDeletes++
			return
		}
	}
}

func (o *matchOracle) deliver(key msgKey) error {
	q := o.fifo(key)
	b := o.bytes
	o.bytes++
	if len(q.recvs) == 1 {
		o.noteRemoval(key)
	}
	if len(q.arrivals) == 1 {
		o.spills[0]++
	}
	slots := len(o.x.slots)
	got := o.x.deliver(key, b)
	if len(o.x.slots) != slots {
		o.grows++
	}
	if len(q.recvs) == 0 {
		q.arrivals = append(q.arrivals, b)
		if got != nil {
			return fmt.Errorf("deliver %+v matched a receive, but none is posted", key)
		}
		return nil
	}
	want := q.recvs[0]
	q.recvs = q.recvs[1:]
	if got != want {
		return fmt.Errorf("deliver %+v matched %p, want the oldest posted receive %p", key, got, want)
	}
	return nil
}

func (o *matchOracle) post(key msgKey) error {
	q := o.fifo(key)
	req := &Request{tag: int32(o.reqs)}
	o.reqs++
	if len(q.arrivals) == 1 {
		o.noteRemoval(key)
	}
	if len(q.recvs) == 1 {
		o.spills[1]++
	}
	slots := len(o.x.slots)
	got, matched := o.x.post(key, req)
	if len(o.x.slots) != slots {
		o.grows++
	}
	if len(q.arrivals) == 0 {
		q.recvs = append(q.recvs, req)
		if matched {
			return fmt.Errorf("post %+v matched %d bytes, but nothing arrived", key, got)
		}
		return nil
	}
	want := q.arrivals[0]
	q.arrivals = q.arrivals[1:]
	if !matched || got != want {
		return fmt.Errorf("post %+v = (%d, %v), want the oldest arrival (%d, true)", key, got, matched, want)
	}
	return nil
}

// check verifies the table against the oracle: exactly the keys with
// something queued occupy a slot, each reachable from its home without
// crossing an empty slot, with the oracle's count and front element inline;
// the spill holds the rest of every key with two or more; the slot array is
// a power of two at most half full.
func (o *matchOracle) check() error {
	x := &o.x
	if len(x.slots)&(len(x.slots)-1) != 0 || 2*x.n > len(x.slots) {
		return fmt.Errorf("%d keys in %d slots breaks the half-load power-of-two layout", x.n, len(x.slots))
	}
	occupied := 0
	for i, s := range x.slots {
		if s.n == 0 {
			if s != (matchSlot{}) {
				return fmt.Errorf("empty slot %d holds %+v", i, s)
			}
			continue
		}
		occupied++
		for j := x.home(s.key); j != i; j = (j + 1) & (len(x.slots) - 1) {
			if x.slots[j].n == 0 {
				return fmt.Errorf("key %+v in slot %d is cut off from its home %d by empty slot %d", s.key, i, x.home(s.key), j)
			}
		}
		q := o.queues[s.key]
		if q == nil {
			return fmt.Errorf("slot %d holds key %+v the oracle never saw", i, s.key)
		}
		var rest int
		switch {
		case s.n > 0:
			if int(s.n) != len(q.arrivals) || s.bytes != q.arrivals[0] || s.req != nil {
				return fmt.Errorf("key %+v: slot (n=%d, bytes=%d, req=%p), oracle holds arrivals %v", s.key, s.n, s.bytes, s.req, q.arrivals)
			}
			rest = len(q.arrivals) - 1
		default:
			if int(-s.n) != len(q.recvs) || s.req != q.recvs[0] || s.bytes != 0 {
				return fmt.Errorf("key %+v: slot (n=%d, bytes=%d, req=%p), oracle holds %d receives", s.key, s.n, s.bytes, s.req, len(q.recvs))
			}
			rest = len(q.recvs) - 1
		}
		sq := x.spill[s.key]
		switch {
		case rest == 0 && sq != nil:
			return fmt.Errorf("key %+v holds one element but keeps a spill queue", s.key)
		case rest > 0 && (sq == nil || sq.arrivals.Len()+sq.recvs.Len() != rest):
			return fmt.Errorf("key %+v: spill does not hold the %d elements behind the slot", s.key, rest)
		}
	}
	if occupied != x.n {
		return fmt.Errorf("%d occupied slots, index counts %d", occupied, x.n)
	}
	live, spilled := 0, 0
	for _, q := range o.queues {
		if n := len(q.arrivals) + len(q.recvs); n > 0 {
			live++
			if n > 1 {
				spilled++
			}
		}
	}
	if live != x.n || spilled != len(x.spill) {
		return fmt.Errorf("index holds %d keys (%d spilled), oracle %d (%d)", x.n, len(x.spill), live, spilled)
	}
	return nil
}

// drain matches every element still queued, in key order of first sight,
// checking as it goes; the table must end empty.
func (o *matchOracle) drain(keys []msgKey) error {
	for _, k := range keys {
		q := o.queues[k]
		for len(q.arrivals) > 0 {
			if err := o.post(k); err != nil {
				return err
			}
		}
		for len(q.recvs) > 0 {
			if err := o.deliver(k); err != nil {
				return err
			}
		}
	}
	if err := o.check(); err != nil {
		return err
	}
	if o.x.n != 0 || len(o.x.spill) != 0 {
		return fmt.Errorf("drained table still holds %d keys, %d spilled", o.x.n, len(o.x.spill))
	}
	return nil
}

// TestMatchIndexAgainstMapOracle drives the index and the map-of-FIFOs
// oracle with seeded deliver/post streams in waves: each wave opens fresh
// keys — over the whole int32 tag range, with low-bit collisions (the
// driver's block*slots+slot shape) and a handful of hot keys that take
// several elements on one side — then drains most of what it queued, so
// keys enter and leave the table throughout. The streams must grow the
// table, spill on both sides, and delete across the end of the slot array.
func TestMatchIndexAgainstMapOracle(t *testing.T) {
	wrapped := 0
	for seed := uint64(1); seed <= 4; seed++ {
		rng := xrand.New(seed)
		o := newMatchOracle()
		var order []msgKey // keys in first-sight order, for the final drain
		var open []msgKey  // keys this wave has queued on
		var hot []msgKey
		draw := func(wave int) msgKey {
			switch rng.Intn(5) {
			case 0: // anywhere in the tag domain, negatives included
				return msgKey{src: int32(rng.Intn(512)), tag: int32(rng.Uint64())}
			case 1: // same low 16 bits, different high bits
				return msgKey{src: int32(rng.Intn(4)), tag: int32(rng.Intn(1<<15))<<16 | 0x2a}
			case 2: // the driver's shape: fresh dense tags every wave
				return msgKey{src: 7, tag: int32(wave*4096 + rng.Intn(4096))}
			case 3: // the extremes
				tags := []int32{math.MinInt32, math.MaxInt32, -1, 0}
				return msgKey{src: int32(rng.Intn(3)), tag: tags[rng.Intn(len(tags))]}
			default: // a hot key
				if len(hot) == 0 {
					return msgKey{src: 1, tag: 1}
				}
				return hot[rng.Intn(len(hot))]
			}
		}
		for wave := 0; wave < 12; wave++ {
			open = open[:0]
			side := rng.Intn(2) // the side this wave's keys open on
			for i := 0; i < 800+400*wave; i++ {
				key := draw(wave)
				if _, seen := o.queues[key]; !seen {
					order = append(order, key)
					if len(hot) < 16 && rng.Intn(8) == 0 {
						hot = append(hot, key)
					}
				}
				open = append(open, key)
				op := o.deliver
				if (side == 1) != (rng.Intn(4) == 0) {
					op = o.post
				}
				if err := op(key); err != nil {
					t.Fatalf("seed %d wave %d op %d: %v", seed, wave, i, err)
				}
				if i%97 == 0 {
					if err := o.check(); err != nil {
						t.Fatalf("seed %d wave %d op %d: %v", seed, wave, i, err)
					}
				}
			}
			// Drain most of the wave: one matching op per queued key, in a
			// shuffled order, so deletions land all over the table.
			rng.Shuffle(len(open), func(i, j int) { open[i], open[j] = open[j], open[i] })
			for _, key := range open[:len(open)*9/10] {
				q := o.queues[key]
				var err error
				switch {
				case len(q.arrivals) > 0:
					err = o.post(key)
				case len(q.recvs) > 0:
					err = o.deliver(key)
				}
				if err != nil {
					t.Fatalf("seed %d wave %d drain: %v", seed, wave, err)
				}
			}
			if err := o.check(); err != nil {
				t.Fatalf("seed %d wave %d after drain: %v", seed, wave, err)
			}
		}
		if err := o.drain(order); err != nil {
			t.Fatalf("seed %d final drain: %v", seed, err)
		}
		if o.grows < 3 || o.spills[0] == 0 || o.spills[1] == 0 {
			t.Fatalf("seed %d: %d growths, %v spills (arrivals, receives): the stream must grow the table and spill on both sides",
				seed, o.grows, o.spills)
		}
		wrapped += o.wrappedDeletes
	}
	if wrapped == 0 {
		t.Fatal("no deletion ran across the end of the slot array")
	}
}

// TestMatchIndexDeleteAcrossWrap builds a probe run that wraps from the last
// slot to the first and empties it in every one of the 120 orders: each
// deletion must shift the entries behind it back toward their homes, across
// the wrap, and leave every survivor findable.
func TestMatchIndexDeleteAcrossWrap(t *testing.T) {
	probe := matchIndex{slots: make([]matchSlot, 16), shift: 64 - 4} // the table five keys grow to
	last := len(probe.slots) - 1
	var keys []msgKey // three keys homed at the last slot, two at the first
	for tag, atLast, atFirst := int32(1), 0, 0; atLast < 3 || atFirst < 2; tag++ {
		k := msgKey{src: 3, tag: tag}
		switch h := probe.home(k); {
		case h == last && atLast < 3:
			atLast++
			keys = append(keys, k)
		case h == 0 && atFirst < 2:
			atFirst++
			keys = append(keys, k)
		}
	}
	wrapped := 0
	var permute func(perm []int, rest []int)
	permute = func(perm []int, rest []int) {
		if len(rest) > 0 {
			for i := range rest {
				next := append(append([]int{}, rest[:i]...), rest[i+1:]...)
				permute(append(perm, rest[i]), next)
			}
			return
		}
		o := newMatchOracle()
		for _, k := range keys {
			if err := o.deliver(k); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range []int{last, 0, 1, 2, 3} {
			if len(o.x.slots) != last+1 || o.x.slots[i].n == 0 {
				t.Fatalf("setup: %d slots, slot %d empty; want one run over slots %d, 0..3", len(o.x.slots), i, last)
			}
		}
		for _, p := range perm {
			if err := o.post(keys[p]); err != nil {
				t.Fatalf("order %v: %v", perm, err)
			}
			if err := o.check(); err != nil {
				t.Fatalf("order %v after deleting %+v: %v", perm, keys[p], err)
			}
		}
		wrapped += o.wrappedDeletes
	}
	permute(nil, []int{0, 1, 2, 3, 4})
	if wrapped == 0 {
		t.Fatal("no deletion ran across the wrap")
	}
}

// TestMatchIndexNegativeKeys: negative and extreme tags are inside the int32
// domain and must not alias their positive bit patterns' neighbours or each
// other.
func TestMatchIndexNegativeKeys(t *testing.T) {
	keys := []msgKey{{0, -1}, {0, 1<<31 - 1}, {0, -1 << 31}, {1, -1}, {0, 0}, {1, 0}, {-1 << 31, -1}}
	var x matchIndex
	for i, k := range keys {
		if x.deliver(k, int64(i)) != nil {
			t.Fatalf("key %+v matched a receive nobody posted", k)
		}
	}
	if x.n != len(keys) || len(x.spill) != 0 {
		t.Fatalf("%d distinct keys occupy %d slots with %d spilled", len(keys), x.n, len(x.spill))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if got, ok := x.post(keys[i], &Request{}); !ok || got != int64(i) {
			t.Fatalf("key %+v yielded (%d, %v), want its own arrival %d", keys[i], got, ok, i)
		}
	}
	if x.n != 0 {
		t.Fatalf("index holds %d keys after every arrival matched", x.n)
	}
}

// FuzzMatchIndex runs an arbitrary deliver/post stream against the oracle.
// Each input byte is one operation: the low bit picks the side, the rest a
// key from a small set that mixes extreme tags, colliding low bits and
// dense driver-shaped tags, so streams revisit keys, spill and delete.
func FuzzMatchIndex(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 3, 5})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 1, 0})
	f.Add([]byte{10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29})
	f.Add([]byte{255, 254, 253, 252, 0, 1, 128, 129})
	f.Fuzz(func(t *testing.T, ops []byte) {
		o := newMatchOracle()
		var seen []msgKey
		for i, b := range ops {
			k := int32(b >> 1)
			key := msgKey{src: k & 3, tag: k * 260}
			switch k % 8 {
			case 0:
				key.tag = math.MinInt32 + k
			case 1:
				key.tag = math.MaxInt32 - k
			case 2:
				key.tag = -k
			case 3:
				key.tag = k << 16
			}
			if _, ok := o.queues[key]; !ok {
				seen = append(seen, key)
			}
			op := o.deliver
			if b&1 == 1 {
				op = o.post
			}
			if err := op(key); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if err := o.check(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if err := o.drain(seen); err != nil {
			t.Fatal(err)
		}
	})
}

// churnWorld spawns ranks that run epochs forever: in each, every rank
// exchanges perPeer messages with every other rank under tags no earlier
// epoch used — the driver's re-keying after a refinement — posting half
// its receives before the sends and half after the messages have arrived,
// so keys open on both sides. It returns the engine and the count of epochs
// rank 0 has finished; the ranks are spawned outside any measurement.
func churnWorld(ranks, perPeer int) (*sim.Engine, *int) {
	eng := sim.NewEngine()
	w := NewWorld(eng, simnet.New(eng, quietConfig(1, ranks)))
	epochs := new(int)
	for r := 0; r < ranks; r++ {
		w.Spawn(r, func(c *Comm) {
			sends := make([]*Request, 0, ranks*perPeer)
			recvs := make([]*Request, 0, ranks*perPeer)
			for e := 0; ; e++ {
				base := e * perPeer
				sends, recvs = sends[:0], recvs[:0]
				for p := 0; p < ranks; p++ {
					for k := 0; p != r && k < perPeer; k += 2 {
						recvs = append(recvs, c.Irecv(p, base+k))
					}
				}
				for p := 0; p < ranks; p++ {
					for k := 0; p != r && k < perPeer; k++ {
						sends = append(sends, c.Isend(p, base+k, 64))
					}
				}
				c.Compute(1e-3) // every message arrives meanwhile
				for p := 0; p < ranks; p++ {
					for k := 1; p != r && k < perPeer; k += 2 {
						recvs = append(recvs, c.Irecv(p, base+k))
					}
				}
				c.WaitAll(sends)
				c.WaitAll(recvs)
				c.Barrier()
				if r == 0 {
					*epochs++
				}
			}
		})
	}
	return eng, epochs
}

// runEpochs steps eng until rank 0 has finished n more epochs; an engine
// that runs dry first is a simulated deadlock.
func runEpochs(tb testing.TB, eng *sim.Engine, epochs *int, n int) {
	for target := *epochs + n; *epochs < target; {
		if !eng.Step() {
			tb.Fatalf("simulated deadlock after %d epochs", *epochs)
		}
	}
}

// TestMatchChurnAllocs: a warm world whose every epoch uses fresh tags must
// allocate nothing per message. A key leaves the index when its queue
// empties, so each epoch reuses the slots the last one vacated; an index
// that kept every key it ever saw allocated a queue and its ring per new
// key, and regrew its slot array as the dead keys piled up.
func TestMatchChurnAllocs(t *testing.T) {
	const ranks, perPeer, epochs = 4, 32, 8
	unforced(t)
	eng, done := churnWorld(ranks, perPeer)
	defer eng.Close()
	runEpochs(t, eng, done, 1) // the first epoch sizes every slot array and pool
	per := testing.AllocsPerRun(5, func() { runEpochs(t, eng, done, epochs) }) /
		(epochs * ranks * (ranks - 1) * perPeer)
	if per != 0 {
		t.Errorf("epochs with fresh tags allocate %.3f objects per message, want 0", per)
	}
}

// BenchmarkMatchChurn prices one message of a warm world whose epochs
// re-key every (source, tag): send, delivery, match and wait included.
func BenchmarkMatchChurn(b *testing.B) {
	const ranks, perPeer = 4, 32
	check.Force(false)
	defer check.Force(true)
	eng, done := churnWorld(ranks, perPeer)
	defer eng.Close()
	runEpochs(b, eng, done, 1)
	b.ReportAllocs()
	b.ResetTimer()
	runEpochs(b, eng, done, b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ranks*(ranks-1)*perPeer), "ns/msg")
}
