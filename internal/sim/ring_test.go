package sim

import "testing"

func TestRingFIFOAcrossWrap(t *testing.T) {
	var r Ring[int64]
	// Interleave pushes and pops so head wraps around the buffer several
	// times while the buffer stays small.
	next, want := int64(0), int64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 3; i++ {
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: pop = %d, want %d", round, got, want)
			}
			want++
		}
	}
	if r.n != 0 {
		t.Fatalf("ring not empty: n=%d", r.n)
	}
}

func TestRingGrowPreservesOrder(t *testing.T) {
	var r Ring[int64]
	// Offset head, then force growth with elements wrapped around the end.
	for i := int64(0); i < 3; i++ {
		r.Push(i)
	}
	r.Pop()
	r.Pop() // head=2, n=1
	for i := int64(3); i < 20; i++ {
		r.Push(i) // grows through 8, 16, 32 with a wrapped layout
	}
	for want := int64(2); want < 20; want++ {
		if got := r.Pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
	}
}

func TestRingPopReleasesPointers(t *testing.T) {
	var r Ring[*Future]
	req := &Future{}
	r.Push(req)
	r.Pop()
	for _, p := range r.buf {
		if p != nil {
			t.Fatal("popped slot still pins its pointer")
		}
	}
}

func TestRingPopEmptyPanics(t *testing.T) {
	var r Ring[int64]
	defer func() {
		if recover() == nil {
			t.Fatal("pop of empty ring did not panic")
		}
	}()
	r.Pop()
}

func TestRingReusesBackingStorage(t *testing.T) {
	var r Ring[int64]
	for i := int64(0); i < 8; i++ {
		r.Push(i)
	}
	for i := 0; i < 8; i++ {
		r.Pop()
	}
	before := &r.buf[0]
	// A full drain-and-refill cycle at the same high-water mark must not
	// reallocate — that is the whole point of the ring over append/reslice.
	for i := int64(0); i < 8; i++ {
		r.Push(i)
	}
	if &r.buf[0] != before {
		t.Fatal("ring reallocated its buffer at an unchanged high-water mark")
	}
}
