package netsim

import (
	"fmt"

	"repro/internal/core"
)

// Timer is a reusable, cancellable one-shot: the place a schedule waits
// when it recurs (a ticker, a pacer) or may be called off before it
// fires (a probe deadline, a boot delay).  It is made once with its
// callback; Reset arms it, taking the next seq exactly where At would,
// and Stop disarms it.  At most one arm is live.  An arm that was
// stopped, or superseded by a later Reset, never runs, never moves the
// clock and counts neither in Stats.Executed nor in Pending: callers
// need no generation counter to tell a stale firing from a live one.
// Arming allocates nothing, and a disarmed timer holds no payload slot,
// so a timer per short-lived object (one per probe) costs the engine
// nothing once it has fired or been stopped.
type Timer struct {
	sim  *Sim
	fn   func()
	slot int32 // payload slot of the live arm, or disarmed
}

const disarmed int32 = -1

// sweepMin is the fewest stale keys worth rebuilding the heap for.
const sweepMin = 64

// NewTimer returns a disarmed timer that runs fn when an arm fires.
func (s *Sim) NewTimer(fn func()) *Timer {
	return &Timer{sim: s, fn: fn, slot: disarmed}
}

// Armed reports whether an arm is waiting to fire.  It is false inside
// the callback until the callback re-arms.
func (t *Timer) Armed() bool { return t.slot != disarmed }

// Reset arms the timer to fire at absolute time at, superseding the
// live arm if there is one.  Scheduling in the past panics.
//
//alloc:free
func (t *Timer) Reset(at Time) {
	s := t.sim
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", at, s.now))
	}
	t.Stop()
	t.slot = s.alloc()
	s.slots[t.slot].pd = t
	s.push(at, t.slot)
}

// Stop disarms the timer; a disarmed timer is left alone.  The arm's
// slot is emptied at once (that is what marks its key stale) and
// recycled when the key surfaces, or sooner: once stale keys outnumber
// live ones the heap is rebuilt without them, so the queue stays
// proportional to what is pending however many arms were called off.
//
//alloc:free
func (t *Timer) Stop() {
	if t.slot == disarmed {
		return
	}
	s := t.sim
	s.slots[t.slot] = eventPayload{}
	t.slot = disarmed
	s.stale++
	s.stats.Discarded++
	if s.stale >= sweepMin && s.stale > len(s.keys)/2 {
		s.sweep()
	}
}

// DeliverAt implements PacketDelivery: the live arm fires.  The timer
// is disarmed before the callback runs, so the callback may Reset it.
func (t *Timer) DeliverAt(*core.Packet, uint64) {
	t.slot = disarmed
	t.fn()
}

// sweep drops every stale key and restores the heap order.  Which keys
// remain decides the execution order, not where they sit in the heap,
// so a sweep is invisible to the run.
//
//alloc:free
func (s *Sim) sweep() {
	live := s.keys[:0]
	for _, k := range s.keys {
		if k.slot >= 0 && s.slots[k.slot].fn == nil && s.slots[k.slot].pd == nil {
			s.free = append(s.free, k.slot)
			continue
		}
		live = append(live, k)
	}
	s.keys = live
	s.stale = 0
	for i := len(live)/2 - 1; i >= 0; i-- {
		siftDown(live, i)
	}
}
