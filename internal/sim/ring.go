package sim

// Ring is a growable FIFO over a power-of-two circular buffer: one of the
// engine's event lanes, and each spill queue of mpi's match index. Unlike
// the append-and-reslice pattern (`q = append(q, x)` / `q = q[1:]`), which
// leaks the consumed prefix and reallocates every time the slice regrows
// past it, a ring reuses its backing array forever: a queue that drains and
// refills at the same high-water mark never allocates.
type Ring[E any] struct {
	buf  []E
	head int // index of the oldest element
	n    int // number of elements
}

// Len returns the number of queued elements.
func (r *Ring[E]) Len() int { return r.n }

// Push appends x at the tail, doubling the buffer (minimum 8) when full.
func (r *Ring[E]) Push(x E) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

func (r *Ring[E]) grow() {
	nb := make([]E, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

// Pop removes and returns the oldest element. The vacated slot is zeroed,
// so the ring never pins a popped pointer. Popping an empty ring panics: it
// is a bug in whoever keeps the queue's count.
func (r *Ring[E]) Pop() E {
	if r.n == 0 {
		panic("sim: pop of empty ring")
	}
	x := r.buf[r.head]
	var zero E
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return x
}

// Front and Back return the oldest and the newest element in place; the
// ring must be non-empty.
func (r *Ring[E]) Front() *E { return &r.buf[r.head] }
func (r *Ring[E]) Back() *E  { return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }
