// Package netsim is a deterministic discrete-event network simulator:
// the substrate standing in for the paper's Linux-router testbed and
// ns-2 setup (see DESIGN.md §2).  It provides a virtual clock, a stable
// event queue, timers and byte-accurate links; switches and hosts are
// built on top in internal/asic and internal/endhost.
//
// The event queue executes in (time, seq) order, seq being the order
// of scheduling.  Sim.At and Sim.AtPacket put an event in a binary
// heap; a source that schedules in firing order (a fixed-latency
// pipeline, a serializing link) owns a Lane, a FIFO ring of which only
// the head is in the heap.  Both give the same order — a Lane is where
// an event waits, not a second scheduler — and Sim.Stats reports how
// many events ran and how deep the heap and the whole queue got.
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

// Seconds converts a float second count into simulated time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Milliseconds converts a float millisecond count into simulated time.
func Milliseconds(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Seconds returns the time as float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time in seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// PacketDelivery is the allocation-free alternative to scheduling a
// closure for per-packet events: the receiver is stored directly in
// the event along with the packet and one word of caller-packed
// context, so the scheduler's hot path (one event per serialized
// frame, one per pipeline stage) captures nothing.
type PacketDelivery interface {
	// DeliverAt is invoked at the event's time with the packet and the
	// arg value passed to AtPacket.
	DeliverAt(pkt *core.Packet, arg uint64)
}

// eventKey is the heap's sort record: firing time, FIFO tiebreak, and
// where the event's payload waits — a non-negative slot is an index
// into the payload slab, a negative one is ^id of the Lane whose head
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

// eventPayload is either a closure event (fn != nil) or a packet event
// (pd != nil); exactly one of the two is set.  Payloads live in a
// stable slab and never move while queued; each slot is written once at
// push and cleared once at pop.
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
// Events wait in one of two places.  Ordinary events (At, AtPacket)
// wait in a hand-rolled binary min-heap of pointer-free keys over a
// slot slab (see eventKey); container/heap would box every pushed event
// into an interface, allocating once per scheduled event.  Events from
// a source whose firing times never decrease wait in that source's Lane
// and only the lane's head holds a key in the heap, so the heap's depth
// is the number of sources with something outstanding, not the number
// of packets in flight.  Every event takes its seq from the one counter
// and the heap orders lane heads and ordinary events on the same
// (at, seq) key: the execution order is the total (at, seq) order
// whichever place an event waited in.
type Sim struct {
	now     Time
	keys    []eventKey
	slots   []eventPayload
	free    []int32 // recycled slot indices
	lanes   []*Lane // by id; a key with slot < 0 names lanes[^slot]
	backlog int     // lane entries queued behind their lane's head
	seq     uint64
	rng     *rand.Rand
	stopped bool
	stats   Stats
}

// Stats are the engine's self-metrics, cumulative since New.
type Stats struct {
	// Executed counts events run.
	Executed uint64
	// HeapPeak is the deepest the event heap got: ordinary events plus
	// one key per non-empty lane.
	HeapPeak int
	// PendingPeak is the most events that were outstanding at once
	// (the peak of Pending): the heap plus every lane's backlog.
	PendingPeak int
}

// New creates a simulator whose random source is seeded with seed, so
// experiments are reproducible.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Rand exposes the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Pending returns the number of queued events, wherever they wait.
func (s *Sim) Pending() int { return len(s.keys) + s.backlog }

// Stats returns the engine's self-metrics.
func (s *Sim) Stats() Stats { return s.stats }

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
// allocating.  Sources that schedule in firing order — a fixed-latency
// pipeline, a serializing link — use a Lane instead, which keeps their
// events out of the heap.
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
	s.seq++
	h := append(s.keys, eventKey{at: t, seq: s.seq, slot: slot})
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
	if p := len(s.keys) + s.backlog; p > s.stats.PendingPeak {
		s.stats.PendingPeak = p
	}
}

// siftDown restores the heap order of h after its root was replaced
// (pointer-free swaps: no write barriers).
//
//alloc:free
func siftDown(h []eventKey) {
	i := 0
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

// pop removes the earliest event, returning its time and payload.  The
// event's slot or lane entry is cleared (releasing the packet/closure
// references) and the queue is whole again before the caller runs the
// event, so re-entrant scheduling from inside the event sees a
// consistent queue.  When the earliest event is a lane's head and the
// lane holds more, the lane's next entry takes over the root key in
// place: one sift down instead of a pop and a push.
//
//alloc:free
func (s *Sim) pop() (Time, eventPayload) {
	h := s.keys
	top := h[0]
	if top.slot < 0 {
		l := s.lanes[^top.slot]
		e := l.ring.Pop()
		if l.ring.Len() > 0 {
			next := l.ring.At(0)
			h[0] = eventKey{at: next.at, seq: next.seq, slot: top.slot}
			s.backlog--
			siftDown(h)
		} else {
			s.dropRoot()
		}
		return top.at, eventPayload{pd: l.pd, pkt: e.pkt, arg: e.arg}
	}
	s.dropRoot()
	e := s.slots[top.slot]
	s.slots[top.slot] = eventPayload{}
	s.free = append(s.free, top.slot)
	return top.at, e
}

// dropRoot removes the heap's root key.
//
//alloc:free
func (s *Sim) dropRoot() {
	h := s.keys
	n := len(h) - 1
	h[0] = h[n]
	s.keys = h[:n]
	siftDown(s.keys)
}

// Stop makes Run and RunUntil return after the current event.
func (s *Sim) Stop() { s.stopped = true }

// Run processes events until the queue drains or Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for len(s.keys) > 0 && !s.stopped {
		s.step()
	}
}

// RunUntil processes every event scheduled at or before t, then
// advances the clock to exactly t.
func (s *Sim) RunUntil(t Time) {
	s.stopped = false
	for len(s.keys) > 0 && !s.stopped && s.keys[0].at <= t {
		s.step()
	}
	if !s.stopped && t > s.now {
		s.now = t
	}
}

//alloc:free
func (s *Sim) step() {
	at, e := s.pop()
	s.now = at
	s.stats.Executed++
	if e.fn != nil {
		e.fn()
		return
	}
	e.pd.DeliverAt(e.pkt, e.arg)
}

// Ticker fires a callback periodically until stopped.
type Ticker struct {
	sim     *Sim
	period  Time
	fn      func()
	tickFn  func() // t.tick bound once, so rescheduling never allocates
	stopped bool
}

// Every schedules fn to run first at start and then every period.  It
// returns a Ticker whose Stop cancels future firings.
func (s *Sim) Every(start, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("netsim: ticker period must be positive")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.tickFn = t.tick
	s.At(start, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.sim.After(t.period, t.tickFn)
	}
}

// Stop cancels the ticker.  Safe to call multiple times, including from
// inside the callback.
func (t *Ticker) Stop() { t.stopped = true }
