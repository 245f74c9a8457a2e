// Package netsim is a deterministic discrete-event network simulator:
// the substrate standing in for the paper's Linux-router testbed and
// ns-2 setup (see DESIGN.md §2).  It provides a virtual clock, a stable
// event queue, timers and byte-accurate links; switches and hosts are
// built on top in internal/asic and internal/endhost.
//
// The event queue executes in (time, seq) order, seq being the order
// of scheduling.  Sim.At and Sim.AtPacket put an event in a binary
// heap; a source that schedules in firing order (a serializing link)
// owns a lane, a FIFO ring of which only the head is in the heap; a
// schedule that recurs or may be called off (a ticker, a pacer, a
// probe deadline) owns a Timer, whose one live arm sits in the heap
// and whose stopped or superseded arms never run.  All three give the
// same order — a lane or a Timer is where an event waits, not a second
// scheduler — and Sim.Stats reports how many events ran, how many arms
// were dropped unrun, and how deep the heap and the whole queue got.
package netsim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Convenient units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the time as float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time in seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// PacketDelivery is the allocation-free alternative to scheduling a
// closure for per-packet events: the receiver is stored directly in
// the event along with the packet and one word of caller-packed
// context, so the scheduler's hot path (one event per frame a link
// delivers) captures nothing.
type PacketDelivery interface {
	// DeliverAt is invoked at the event's time with the packet and the
	// arg value passed to AtPacket.
	DeliverAt(pkt *core.Packet, arg uint64)
}

// eventKey is the heap's sort record: firing time, FIFO tiebreak, and
// where the event's payload waits — a non-negative slot is an index
// into the payload slab, a negative one is ^id of the lane whose head
// entry this key stands for.  Keys are pointer-free on purpose —
// sifting swaps only keys, so heap maintenance never triggers GC write
// barriers (which dominated the hot-path profile when the heap held
// the payload pointers directly).
type eventKey struct {
	at   Time
	seq  uint64
	slot int32
}

func (a eventKey) less(b eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Stamp is a place in the execution order: a time and a seq.  Every
// event has its own, and two events run in the order of their stamps.
type Stamp struct {
	At  Time
	Seq uint64
}

// Before reports whether a comes before b in the execution order.
//
//alloc:free
func (a Stamp) Before(b Stamp) bool {
	return a.At < b.At || a.At == b.At && a.Seq < b.Seq
}

// eventPayload is either a closure event (fn != nil) or a packet event
// (pd != nil); exactly one of the two is set.  Payloads live in a
// stable slab and never move while queued; each slot is written once at
// push and cleared once when step reads it — or earlier, by Timer.Stop:
// a queued slot with neither set is a timer arm that was called off, and
// its key is dropped unrun when it surfaces.
type eventPayload struct {
	fn  func()
	pd  PacketDelivery
	pkt *core.Packet
	arg uint64
}

// Sim is a discrete-event scheduler.  Events at equal times fire in
// scheduling order (FIFO), which makes runs fully deterministic for a
// given seed.  Sim is not safe for concurrent use: the dataplane model
// is single-threaded, like one ASIC pipeline.
//
// Events wait in one of three places.  Ordinary events (At, AtPacket)
// wait in a hand-rolled binary min-heap of pointer-free keys over a
// slot slab (see eventKey); container/heap would box every pushed event
// into an interface, allocating once per scheduled event.  Events from
// a source whose firing times never decrease wait in that source's lane
// and only the lane's head holds a key in the heap, so the heap's depth
// is the number of sources with something outstanding, not the number
// of packets in flight.  A Timer's live arm waits in the heap like an
// ordinary event; an arm that was stopped or superseded leaves a stale
// key behind, which is dropped unrun when it surfaces (or swept out
// earlier, once stale keys outnumber live ones).  Every event takes its
// seq from the one counter and the heap orders lane heads, timer arms
// and ordinary events on the same (at, seq) key: the execution order is
// the total (at, seq) order whichever place an event waited in.
type Sim struct {
	now     Time
	keys    []eventKey
	slots   []eventPayload
	free    []int32 // recycled slot indices
	lanes   []*lane // by id; a key with slot < 0 names lanes[^slot]
	backlog int     // lane entries queued behind their lane's head
	stale   int     // heap keys of timer arms that were stopped or superseded
	seq     uint64
	cur     uint64 // seq of the event running, or 0 once RunUntil moved the clock past it
	rng     *rand.Rand
	stats   Stats
	pool    core.Pool
}

// Stats are the engine's self-metrics, cumulative since New.
type Stats struct {
	// Executed counts events run.
	Executed uint64
	// Discarded counts timer arms dropped unrun: stopped, or superseded
	// by a later Reset.
	Discarded uint64
	// HeapPeak is the deepest the event heap got: ordinary events and
	// timer arms (stale ones included until they are dropped) plus one
	// key per non-empty lane.
	HeapPeak int
	// PendingPeak is the most events that were outstanding at once
	// (the peak of Pending): the heap's live keys plus every lane's
	// backlog.
	PendingPeak int
}

// New creates a simulator whose random source is seeded with seed, so
// experiments are reproducible.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Stamp returns the running event's place in the execution order.
// Between events it is the last event's place, or (now, 0) once
// RunUntil moved the clock past that: a place before every event still
// to run.
//
//alloc:free
func (s *Sim) Stamp() Stamp { return Stamp{At: s.now, Seq: s.cur} }

// Rand exposes the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Pending returns the number of queued events, wherever they wait.  A
// timer arm that was stopped or superseded is not one.
func (s *Sim) Pending() int { return len(s.keys) + s.backlog - s.stale }

// Stats returns the engine's self-metrics.
//
//api:harness the engine counts the netsim, asic and budget tests assert on (Collect names them as rows)
func (s *Sim) Stats() Stats { return s.stats }

// Pool returns the simulation's packet pool: the free list every
// switch wired to this Sim clones through and every host on it draws
// its pooled packets from (see core/pool.go for the ownership rules).
func (s *Sim) Pool() *core.Pool { return &s.pool }

// Collect names the engine's and the pool's counts for a metrics
// registry's pull edge (reg.Collect(sim.Collect)): eight counter rows,
// read at snapshot.  The engine's say how many events the run cost, how
// deep the heap and the whole event queue got, and how many timer arms
// it did not have to run.  heap_peak and pending_peak are high-water
// marks, not counts, despite the counter kind: the registry sums a name
// emitted by several owners, so they mean nothing summed over two Sims
// on one registry or differenced between two snapshots.
func (s *Sim) Collect(emit func(name string, v uint64)) {
	emit("netsim/events_executed", s.stats.Executed)
	emit("netsim/heap_peak", uint64(s.stats.HeapPeak))
	emit("netsim/pending_peak", uint64(s.stats.PendingPeak))
	emit("netsim/arms_discarded", s.stats.Discarded)
	st := s.pool.Stats()
	emit("netsim/pool_issued", st.Issued)
	emit("netsim/pool_recycled", st.Recycled)
	emit("netsim/pool_adopted", st.Adopted)
	emit("netsim/pool_allocated", st.Allocated)
}

// At schedules fn to run at absolute time t.  Scheduling in the past
// panics: it is always a modeling bug.
//
//alloc:free
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, s.now))
	}
	slot := s.alloc()
	s.slots[slot].fn = fn
	s.push(t, slot)
}

// AtPacket schedules pd.DeliverAt(pkt, arg) at absolute time t without
// allocating.  A source that schedules in firing order — a serializing
// link — uses a lane instead, which keeps its events out of the heap.
//
//alloc:free
func (s *Sim) AtPacket(t Time, pd PacketDelivery, pkt *core.Packet, arg uint64) {
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, s.now))
	}
	slot := s.alloc()
	s.slots[slot] = eventPayload{pd: pd, pkt: pkt, arg: arg}
	s.push(t, slot)
}

// After schedules fn to run d from now.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// alloc returns a free payload slot, growing the slab if none are
// recycled.
//
//alloc:free
func (s *Sim) alloc() int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	s.slots = append(s.slots, eventPayload{})
	return int32(len(s.slots) - 1)
}

// push takes the next seq and adds the key (t, seq, slot) to the heap.
//
//alloc:free
func (s *Sim) push(t Time, slot int32) {
	s.pushKey(eventKey{at: t, seq: s.reserveSeq(), slot: slot})
}

// reserveSeq takes the next seq without queueing anything.  A source
// that knows now where an event would stand in the order, but not yet
// whether anyone needs it to run, holds the seq and queues the event
// later with atReserved (see Channel.WakeWhenIdle).
//
//alloc:free
func (s *Sim) reserveSeq() uint64 {
	s.seq++
	return s.seq
}

// atReserved queues fn at (t, seq) for a seq taken earlier with
// reserveSeq and not used since: the event runs exactly where At would
// have put it had it been called at the reservation.  It returns the
// event's payload slot, which runEarly takes.
//
//alloc:free
func (s *Sim) atReserved(t Time, seq uint64, fn func()) int32 {
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, s.now))
	}
	slot := s.alloc()
	s.slots[slot].fn = fn
	s.pushKey(eventKey{at: t, seq: seq, slot: slot})
	return slot
}

// runEarly runs the closure event queued in slot at seq now, inside
// the running event, and leaves its key behind as a stale one, dropped
// unrun when it surfaces.  It counts as executed, not discarded: it
// ran, only ahead of its place, and Stamp reads its place while it runs.
//
//alloc:free
func (s *Sim) runEarly(slot int32, seq uint64) {
	fn := s.slots[slot].fn
	s.slots[slot].fn = nil
	s.stale++
	s.stats.Executed++
	outer := s.cur
	s.cur = seq
	fn()
	s.cur = outer
}

// pushKey adds k to the heap.
//
//alloc:free
func (s *Sim) pushKey(k eventKey) {
	h := append(s.keys, k)
	s.keys = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	if len(h) > s.stats.HeapPeak {
		s.stats.HeapPeak = len(h)
	}
	s.notePending()
}

//alloc:free
func (s *Sim) notePending() {
	if p := s.Pending(); p > s.stats.PendingPeak {
		s.stats.PendingPeak = p
	}
}

// siftDown restores the heap order of h below index i after h[i] was
// replaced (pointer-free swaps: no write barriers).
//
//alloc:free
func siftDown(h []eventKey, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && h[r].less(h[l]) {
			m = r
		}
		if !h[m].less(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// dropRoot removes the heap's root key.
//
//alloc:free
func (s *Sim) dropRoot() {
	h := s.keys
	n := len(h) - 1
	h[0] = h[n]
	s.keys = h[:n]
	siftDown(s.keys, 0)
}

// Run processes events until the queue drains.
//
//api:harness the run-to-drain driver the engine and host tests step a simulation with
func (s *Sim) Run() {
	for len(s.keys) > 0 {
		s.step()
	}
}

// RunUntil processes every event scheduled at or before t, then
// advances the clock to exactly t.
func (s *Sim) RunUntil(t Time) {
	for len(s.keys) > 0 && s.keys[0].at <= t {
		s.step()
	}
	if t > s.now {
		s.now, s.cur = t, 0
	}
}

// step runs the earliest event, reading it where it waits.  A lane
// head's packet and arg come straight from the lane's ring slot, and
// the lane's next entry, if any, takes over the root key in place: one
// sift down instead of a pop and a push.  A slot event is read from the
// slab, whose slot is cleared and freed.  Either way the event's ring
// slot or payload slot no longer holds its packet or closure, and the
// queue is whole again, before the event runs, so re-entrant scheduling
// from inside it sees a consistent queue.  A stale timer arm is not an
// event: it is dropped without moving the clock.
//
//alloc:free
func (s *Sim) step() {
	h := s.keys
	at, seq, slot := h[0].at, h[0].seq, h[0].slot
	if slot < 0 {
		l := s.lanes[^slot]
		e := l.ring.At(0)
		pkt, arg := e.pkt, e.arg
		l.ring.Drop()
		if l.ring.Len() > 0 {
			next := l.ring.At(0)
			h[0].at, h[0].seq = next.at, next.seq
			s.backlog--
			siftDown(h, 0)
		} else {
			s.dropRoot()
		}
		s.now, s.cur = at, seq
		s.stats.Executed++
		l.pd.DeliverAt(pkt, arg)
		return
	}
	s.dropRoot()
	p := &s.slots[slot]
	fn, pd, pkt, arg := p.fn, p.pd, p.pkt, p.arg
	*p = eventPayload{}
	s.free = append(s.free, slot)
	if fn == nil && pd == nil {
		s.stale--
		return
	}
	s.now, s.cur = at, seq
	s.stats.Executed++
	if fn != nil {
		fn()
		return
	}
	pd.DeliverAt(pkt, arg)
}

// Ticker fires a callback periodically until stopped: a Timer that
// re-arms itself one period after each firing.
type Ticker struct {
	timer   Timer
	period  Time
	fn      func()
	stopped bool
}

// Every schedules fn to run first at start and then every period.  It
// returns a Ticker whose Stop cancels future firings.
func (s *Sim) Every(start, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("netsim: ticker period must be positive")
	}
	t := &Ticker{period: period, fn: fn}
	t.timer = Timer{sim: s, fn: t.tick, slot: disarmed}
	t.timer.Reset(start)
	return t
}

// tick runs the callback, then takes the next firing's seq — after
// whatever the callback scheduled, as ever.
//
//alloc:free
func (t *Ticker) tick() {
	t.fn()
	if !t.stopped {
		t.timer.Reset(t.timer.sim.now + t.period)
	}
}

// Stop cancels the ticker and takes its next firing out of the queue.
// Safe to call multiple times, including from inside the callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}
