package mpi

import "math/bits"

// msgKey identifies one matching queue of a destination rank. Both fields
// are int32 by contract: Isend/Irecv reject a peer outside the world and a
// tag outside the int32 range, so the packed form below loses nothing.
type msgKey struct{ src, tag int32 }

// pack returns the key as one word: source in the high half, tag in the low.
func (k msgKey) pack() uint64 { return uint64(uint32(k.src))<<32 | uint64(uint32(k.tag)) }

// matchSlot is one table entry; a nil queue marks the slot empty.
type matchSlot struct {
	key msgKey
	q   *matchQueue
}

// matchIndex is one destination rank's table from (source, tag) to the
// key's matching queue: open addressing over a power-of-two slot array with
// linear probing, grown by doubling at half load. Keys are never deleted —
// queues persist for the life of the world — so probing needs no tombstones,
// and the layout depends only on the insertion order, never on a seed: a
// walk in slot order is deterministic. Only the shard hosting the
// destination rank touches its index (deliveries and receives both execute
// on the destination's engine).
type matchIndex struct {
	slots []matchSlot // nil until the first insertion
	n     int         // occupied slots
	shift uint8       // 64 - log2(len(slots)): the hash keeps its top bits
}

// matchHashMul is 2^64/φ, the Fibonacci-hashing multiplier: driver tags are
// block*slots+slot, so neighbouring keys differ only in their low bits, and
// the multiply spreads exactly those across the top bits the table keeps.
const matchHashMul = 0x9E3779B97F4A7C15

// home returns the slot key's probe sequence starts at.
func (x *matchIndex) home(key msgKey) int { return int(key.pack() * matchHashMul >> x.shift) }

// queue returns the queue for key, creating it on first use.
func (x *matchIndex) queue(key msgKey) *matchQueue {
	if mask := len(x.slots) - 1; mask >= 0 {
		for i := x.home(key); ; i = (i + 1) & mask {
			s := &x.slots[i]
			if s.q == nil {
				break
			}
			if s.key == key {
				return s.q
			}
		}
	}
	return x.insert(key)
}

// insert adds a queue for a key the table does not hold, doubling the slot
// array first when the insertion would pass half load. First use of a key
// only: keys recur every step, so both allocations amortize to zero.
func (x *matchIndex) insert(key msgKey) *matchQueue {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]matchSlot, max(8, 2*len(old)))
		x.shift = uint8(64 - bits.TrailingZeros(uint(len(x.slots))))
		for _, s := range old {
			if s.q != nil {
				x.place(s)
			}
		}
	}
	q := &matchQueue{}
	x.place(matchSlot{key: key, q: q})
	x.n++
	return q
}

// place stores s in the first free slot of its probe sequence.
func (x *matchIndex) place(s matchSlot) {
	mask := len(x.slots) - 1
	i := x.home(s.key)
	for x.slots[i].q != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}
