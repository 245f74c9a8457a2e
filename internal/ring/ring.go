// Package ring is the repo's one FIFO ring buffer: the event lanes of
// internal/netsim and the packet queues of internal/asic and
// internal/endhost are all "append at the tail, take from the head"
// with a standing backlog, and all need their memory to follow
// occupancy rather than throughput.
package ring

// Buf is a first-in-first-out queue over a circular buffer.  The
// buffer doubles when full and is reused as entries leave, so it stays
// O(peak occupancy) however many entries pass through — a slice that
// appends at the tail and advances a head index instead grows with
// throughput whenever the queue never quite drains, which is exactly
// what a bottleneck's egress queue does.  The zero Buf is empty and
// ready to use.
type Buf[T any] struct {
	buf  []T // power-of-two length; live entries are [head, head+n) mod len
	head int
	n    int
}

// Len returns the number of queued entries.
func (r *Buf[T]) Len() int { return r.n }

// Push appends v at the tail.
//
//alloc:free
func (r *Buf[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// grow doubles the buffer by appending it to itself — append, so this
// is the amortized growth the escape gate (tools/allocgate) accepts in
// //alloc:free callers.  The copy of the wrapped prefix [0, head)
// lands right behind the old end, which is where the live entries
// continue; the other duplicates are dropped.
func (r *Buf[T]) grow() {
	old := len(r.buf)
	if old == 0 {
		r.buf = append(r.buf, make([]T, 8)...)
		return
	}
	r.buf = append(r.buf, r.buf...)
	clear(r.buf[:r.head])
	clear(r.buf[old+r.head:])
}

// Pop removes and returns the head entry; on an empty Buf it returns
// the zero T.  The vacated slot is zeroed so it retains no pointer.
//
//alloc:free
func (r *Buf[T]) Pop() T {
	var v T
	if r.n > 0 {
		v = r.buf[r.head]
		r.Drop()
	}
	return v
}

// Drop removes the head entry without returning it, zeroing its slot;
// on an empty Buf it does nothing.  A reader that took what it needed
// through At(0) drops the entry instead of copying it out with Pop.
//
//alloc:free
func (r *Buf[T]) Drop() {
	if r.n == 0 {
		return
	}
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// At returns the i'th queued entry, 0 being the head; i must be in
// [0, Len()).
func (r *Buf[T]) At(i int) *T {
	_ = r.buf[:r.n][i] // the bounds check (a boxed panic message would escape in //alloc:free callers)
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}
