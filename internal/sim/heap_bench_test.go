package sim

import (
	"container/heap"
	"testing"
)

// boxedHeap is the previous container/heap-based implementation, kept here
// so the benchmark pair below documents what the typed heap buys: Push/Pop
// through interface{} box every event onto the Go heap, which on the
// hottest path of every run is one allocation per scheduled event.
type boxedHeap []event

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// heapWorkload mimics the engine's schedule shape: a standing pool of
// pending events with interleaved pushes and pops at slightly jittered
// times.
const heapPool = 1024

func BenchmarkEventHeapTyped(b *testing.B) {
	b.ReportAllocs()
	var h eventHeap
	for i := 0; i < heapPool; i++ {
		h.push(event{t: float64(i % 7), seq: int64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h[0]
		h.pop()
		ev.t += 1
		ev.seq = int64(heapPool + i)
		h.push(ev)
	}
}

func BenchmarkEventHeapBoxed(b *testing.B) {
	b.ReportAllocs()
	var h boxedHeap
	for i := 0; i < heapPool; i++ {
		heap.Push(&h, event{t: float64(i % 7), seq: int64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := heap.Pop(&h).(event)
		ev.t += 1
		ev.seq = int64(heapPool + i)
		heap.Push(&h, ev)
	}
}

// BenchmarkEngineBurst is the traffic shape of a BSP step, run through the
// whole engine: 128 processes leave a barrier at the same instant and each
// posts a burst of 16 sends — a sender-buffer completion plus a delivery
// each, remote ones leaving a monotone NIC clock, local ones landing by
// message size — then waits for its completions. b.N counts events.
func BenchmarkEngineBurst(b *testing.B) {
	const procs, burst, round = 128, 16, 1e-3
	e := NewEngine()
	e.SetSink(nopSink{})
	for r := 0; r < procs; r++ {
		e.Spawn("rank", func(p *Proc) {
			var reqs [burst]Future
			for {
				now := p.Now()
				nic := now
				for i := range reqs {
					reqs[i].Reset()
					e.CompleteAt(now+1e-7, &reqs[i])
					if i%4 == 0 {
						e.DeliverAt(now+1e-6*float64(1+(i*5)%3), int32(r), int32(r+1), int32(i), 4096, true)
					} else {
						nic += 2e-6
						e.DeliverAt(nic+1e-5, int32(r), int32(r+procs/2), int32(i), 4096, false)
					}
				}
				for i := range reqs {
					p.Await(&reqs[i])
				}
				p.Sleep(round - (p.Now() - now))
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for e.Events() < int64(b.N) {
		e.Step()
	}
	b.StopTimer()
	e.Close()
}

// TestEventHeapOrdering replays a scrambled schedule through the typed heap
// and asserts (t, seq) order — the engine's determinism contract.
func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	// Deliberately adversarial: decreasing times, duplicate times, and
	// out-of-order sequences.
	times := []float64{5, 3, 3, 9, 0, 3, 5, 1, 0, 7}
	for i, tv := range times {
		h.push(event{t: tv, seq: int64(i)})
	}
	var prev event
	for i := 0; len(h) > 0; i++ {
		ev := h[0]
		h.pop()
		if i > 0 {
			if ev.t < prev.t || (ev.t == prev.t && ev.seq < prev.seq) {
				t.Fatalf("pop %d out of order: (%v,%d) after (%v,%d)",
					i, ev.t, ev.seq, prev.t, prev.seq)
			}
		}
		prev = ev
	}
}
