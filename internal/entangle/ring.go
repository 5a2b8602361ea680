package entangle

// ring is a FIFO of T in a power-of-two circular buffer that grows by
// doubling and never shrinks: element i (0 = oldest) sits at
// buf[(head+i)&(len(buf)-1)]. Dropping from the front moves head, so
// neither end ever copies, and the backing array is reused in place for as
// long as the occupancy stays under its high-water mark. The zero value is
// an empty ring.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// minRing is a ring's first allocation.
const minRing = 16

// at returns the i-th oldest element.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// push appends v as the newest element.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// grow doubles the buffer, unrolling it so the oldest element lands at 0.
func (r *ring[T]) grow() {
	buf := make([]T, max(minRing, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}

// drop discards the k oldest elements.
func (r *ring[T]) drop(k int) {
	if k > 0 {
		r.head = (r.head + k) & (len(r.buf) - 1)
		r.n -= k
	}
}
