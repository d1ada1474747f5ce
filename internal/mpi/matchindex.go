package mpi

import (
	"math/bits"

	"amrtools/internal/sim"
)

// msgKey identifies one matching queue of a destination rank. Both fields
// are int32 by contract: Isend/Irecv reject a peer outside the world and a
// tag outside the int32 range, so the packed form below loses nothing.
type msgKey struct{ src, tag int32 }

// pack returns the key as one word: source in the high half, tag in the low.
func (k msgKey) pack() uint64 { return uint64(uint32(k.src))<<32 | uint64(uint32(k.tag)) }

// matchSlot is one table entry: a key and its queue, inline. n > 0 counts
// arrived-but-unmatched messages, n < 0 posted-but-unmatched receives; n == 0
// marks the slot empty (a key with nothing queued is not in the table). The
// oldest element lives in the slot itself — bytes for an arrival, req for a
// receive — and the rest, if any, in the index's spill FIFO for the key.
type matchSlot struct {
	key   msgKey
	n     int32
	bytes int64
	req   *Request
}

// matchQueue is the spill FIFO of one key: the second and later elements
// queued on it, while there are any. At most one side is non-empty — an
// arrival immediately matches a queued receive and vice versa. The driver
// never spills (its tags are unique per step); programs that queue several
// messages on one key do, and a drained queue keeps its rings' storage on
// the index's free list, so spilling costs no allocation once warm.
type matchQueue struct {
	arrivals sim.Ring[int64]
	recvs    sim.Ring[*Request]
}

// matchIndex is one destination rank's table from (source, tag) to the
// key's matching queue: open addressing over a power-of-two slot array with
// linear probing, grown by doubling at half load. A key enters with its
// first queued element and leaves when its queue empties, by backward-shift
// deletion (the entries behind it in its probe run move up, so probing needs
// no tombstones): the table holds the messages in flight, not the keys of
// every epoch so far. The layout is a pure function of the operation
// sequence, never of a seed, so a walk in slot order is deterministic. Only
// the shard hosting the destination rank touches its index (deliveries and
// receives both execute on the destination's engine).
type matchIndex struct {
	slots []matchSlot // nil until the first insertion
	n     int         // occupied slots
	shift uint8       // 64 - log2(len(slots)): the hash keeps its top bits

	spill map[msgKey]*matchQueue // keys with two or more elements queued
	free  []*matchQueue          // drained spill queues, storage kept
}

// matchHashMul is 2^64/φ, the Fibonacci-hashing multiplier: driver tags are
// block*slots+slot, so neighbouring keys differ only in their low bits, and
// the multiply spreads exactly those across the top bits the table keeps.
const matchHashMul = 0x9E3779B97F4A7C15

// home returns the slot key's probe sequence starts at.
func (x *matchIndex) home(key msgKey) int { return int(key.pack() * matchHashMul >> x.shift) }

// find returns key's slot, or -1 when the table does not hold it.
func (x *matchIndex) find(key msgKey) int {
	mask := len(x.slots) - 1
	if mask < 0 {
		return -1
	}
	for i := x.home(key); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.n == 0 {
			return -1
		}
		if s.key == key {
			return i
		}
	}
}

// deliver queues an arrival of bytes on key, or, when a receive is posted
// there, dequeues the oldest such receive and returns it (nil otherwise).
func (x *matchIndex) deliver(key msgKey, bytes int64) *Request {
	i := x.find(key)
	if i < 0 {
		x.insert(matchSlot{key: key, n: 1, bytes: bytes})
		return nil
	}
	s := &x.slots[i]
	if s.n > 0 {
		x.spillOf(key, s.n).arrivals.Push(bytes)
		s.n++
		return nil
	}
	req := s.req
	if s.n == -1 {
		x.remove(i)
		return req
	}
	q := x.spill[key]
	s.req = q.recvs.Pop()
	s.n++
	if s.n == -1 {
		x.unspill(key, q)
	}
	return req
}

// post queues the receive req on key, or, when a message from the key has
// already arrived, dequeues the oldest one and returns its size.
func (x *matchIndex) post(key msgKey, req *Request) (bytes int64, matched bool) {
	i := x.find(key)
	if i < 0 {
		x.insert(matchSlot{key: key, n: -1, req: req})
		return 0, false
	}
	s := &x.slots[i]
	if s.n < 0 {
		x.spillOf(key, -s.n).recvs.Push(req)
		s.n--
		return 0, false
	}
	bytes = s.bytes
	if s.n == 1 {
		x.remove(i)
		return bytes, true
	}
	q := x.spill[key]
	s.bytes = q.arrivals.Pop()
	s.n--
	if s.n == 1 {
		x.unspill(key, q)
	}
	return bytes, true
}

// spillOf returns key's spill queue for a key queuing its (n+1)-th element:
// the existing one, or, at the second element, a drained one off the free
// list (or a fresh one).
func (x *matchIndex) spillOf(key msgKey, n int32) *matchQueue {
	if n > 1 {
		return x.spill[key]
	}
	var q *matchQueue
	if k := len(x.free); k > 0 {
		q = x.free[k-1]
		x.free = x.free[:k-1]
	} else {
		q = &matchQueue{}
	}
	if x.spill == nil {
		x.spill = make(map[msgKey]*matchQueue)
	}
	x.spill[key] = q
	return q
}

// unspill retires key's drained spill queue to the free list.
func (x *matchIndex) unspill(key msgKey, q *matchQueue) {
	delete(x.spill, key)
	x.free = append(x.free, q)
}

// insert adds s, whose key the table does not hold, doubling the slot array
// first when the insertion would pass half load.
func (x *matchIndex) insert(s matchSlot) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]matchSlot, max(8, 2*len(old)))
		x.shift = uint8(64 - bits.TrailingZeros(uint(len(x.slots))))
		for _, o := range old {
			if o.n != 0 {
				x.place(o)
			}
		}
	}
	x.place(s)
	x.n++
}

// place stores s in the first free slot of its probe sequence.
func (x *matchIndex) place(s matchSlot) {
	mask := len(x.slots) - 1
	i := x.home(s.key)
	for x.slots[i].n != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// remove empties slot i by backward-shift deletion: each later entry of the
// probe run that may sit at the hole (its home is not cyclically inside
// (hole, entry]) moves up into it, and the last hole is cleared — which also
// drops the slot's request pointer.
func (x *matchIndex) remove(i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].n != 0; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = matchSlot{}
	x.n--
}
