package mpi

// ring is a growable FIFO over a circular buffer. The spill queues of the
// match index push and pop one element per message beyond a key's first, so
// unlike the earlier append-and-reslice pattern (`q = append(q, x)` /
// `q = q[1:]`) — which leaks the consumed prefix and reallocates every time
// the slice regrows past it — a ring reuses its backing array forever: in
// steady state push/pop never allocate.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of elements
}

// push appends v at the tail, growing the buffer if full.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// pop removes and returns the oldest element. The vacated slot is zeroed so
// the ring never pins popped pointers. Popping an empty ring panics: it
// indicates a matching-logic bug.
func (r *ring[T]) pop() T {
	if r.n == 0 {
		panic("mpi: pop of empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// grow doubles the buffer (minimum 4) and re-linearizes the elements.
func (r *ring[T]) grow() {
	nc := 4
	if len(r.buf) > 0 {
		nc = 2 * len(r.buf)
	}
	nb := make([]T, nc)
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		nb[i] = r.buf[j]
	}
	r.buf = nb
	r.head = 0
}
