package mpi

import (
	"testing"

	"amrtools/internal/xrand"
)

// TestMatchIndexAgainstMapOracle drives the index and a plain Go map with
// the same seeded (src, tag) stream: tags over the whole non-negative int32
// range mixed with runs whose low bits collide (the driver's block*slots+slot
// shape) and a handful of hot keys that recur. Every lookup must return the
// queue the oracle holds for that key, before and after each rehash, and
// values pushed through a key's queue must come back in FIFO order.
func TestMatchIndexAgainstMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := xrand.New(seed)
		var x matchIndex
		oracle := map[msgKey]*matchQueue{}
		pushed := map[msgKey]int64{} // values pushed per key so far
		popped := map[msgKey]int64{} // values popped per key so far
		var hot []msgKey
		grows, slots := 0, 0
		for i := 0; i < 20000; i++ {
			var key msgKey
			switch rng.Intn(4) {
			case 0: // anywhere in the tag domain
				key = msgKey{src: int32(rng.Intn(512)), tag: int32(rng.Intn(1 << 31))}
			case 1: // same low 16 bits, different high bits
				key = msgKey{src: int32(rng.Intn(4)), tag: int32(rng.Intn(1<<15))<<16 | 0x2a}
			case 2: // dense low bits from one source
				key = msgKey{src: 7, tag: int32(rng.Intn(4096))}
			default: // a key seen before
				if len(hot) == 0 {
					continue
				}
				key = hot[rng.Intn(len(hot))]
			}
			q := x.queue(key)
			if want, seen := oracle[key]; seen {
				if q != want {
					t.Fatalf("seed %d op %d: key %+v resolved to a different queue than at first use", seed, i, key)
				}
			} else {
				if q == nil || q.arrivals.n != 0 || q.recvs.n != 0 {
					t.Fatalf("seed %d op %d: first use of key %+v did not yield a fresh empty queue", seed, i, key)
				}
				oracle[key] = q
				if len(hot) < 64 {
					hot = append(hot, key)
				}
			}
			if len(x.slots) != slots {
				slots = len(x.slots)
				grows++
				// A rehash must keep every key on its queue.
				for k, want := range oracle {
					if got := x.queue(k); got != want {
						t.Fatalf("seed %d: key %+v moved to another queue across growth to %d slots", seed, k, slots)
					}
				}
			}
			// FIFO per key: push the key's next sequence number, and every
			// third visit pop one and check it is the oldest outstanding.
			q.arrivals.push(pushed[key])
			pushed[key]++
			if rng.Intn(3) == 0 {
				if got := q.arrivals.pop(); got != popped[key] {
					t.Fatalf("seed %d: key %+v popped %d, want %d (FIFO per key)", seed, key, got, popped[key])
				}
				popped[key]++
			}
		}
		if grows < 3 {
			t.Fatalf("seed %d: only %d growths; the stream must cross more than one rehash", seed, grows)
		}
		if x.n != len(oracle) {
			t.Fatalf("seed %d: index holds %d keys, oracle %d", seed, x.n, len(oracle))
		}
		if 2*x.n > len(x.slots) || len(x.slots)&(len(x.slots)-1) != 0 {
			t.Fatalf("seed %d: %d keys in %d slots breaks the half-load power-of-two layout", seed, x.n, len(x.slots))
		}
		// Drain: what is left in each queue is exactly the unpopped suffix.
		live := 0
		for _, s := range x.slots {
			if s.q == nil {
				continue
			}
			live++
			if s.q != oracle[s.key] {
				t.Fatalf("seed %d: slot walk found key %+v on a queue the oracle does not hold", seed, s.key)
			}
			for s.q.arrivals.n > 0 {
				if got := s.q.arrivals.pop(); got != popped[s.key] {
					t.Fatalf("seed %d: key %+v drained %d, want %d", seed, s.key, got, popped[s.key])
				}
				popped[s.key]++
			}
			if popped[s.key] != pushed[s.key] {
				t.Fatalf("seed %d: key %+v lost values: pushed %d, popped %d", seed, s.key, pushed[s.key], popped[s.key])
			}
		}
		if live != len(oracle) {
			t.Fatalf("seed %d: slot walk visited %d keys, oracle holds %d", seed, live, len(oracle))
		}
	}
}

// TestMatchIndexNegativeKeys: negative tags are inside the int32 domain and
// must not alias their positive bit patterns' neighbours or each other.
func TestMatchIndexNegativeKeys(t *testing.T) {
	var x matchIndex
	keys := []msgKey{{0, -1}, {0, 1<<31 - 1}, {0, -1 << 31}, {1, -1}, {0, 0}, {1, 0}}
	seen := map[*matchQueue]msgKey{}
	for _, k := range keys {
		q := x.queue(k)
		if prev, dup := seen[q]; dup {
			t.Fatalf("keys %+v and %+v share a queue", prev, k)
		}
		seen[q] = k
	}
	for q, k := range seen {
		if x.queue(k) != q {
			t.Fatalf("key %+v did not resolve to its own queue again", k)
		}
	}
}
