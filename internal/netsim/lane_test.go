package netsim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// orderRig drives one seeded random schedule against a Sim.  Every
// scheduling call gets the next id, which mirrors the Sim's seq (each
// of At, AtPacket and Lane.At takes exactly one), so the reference
// execution order is the schedule sorted by (at, id).  With useLanes
// false the same schedule is replayed with every Lane.At swapped for
// AtPacket on the same receiver.
type orderRig struct {
	t        *testing.T
	s        *Sim
	r        *rand.Rand
	useLanes bool
	lanes    []*Lane
	sinks    []*orderSink
	laneLast []Time // newest firing time handed to each lane

	nextID      int
	budget      int          // scheduling calls left
	outstanding map[int]Time // id -> firing time, for events not yet run
	stopID      int          // the event with this id calls Stop
	stopped     bool

	fired     []firedEvent
	fallbacks int // Lane.At calls that took the non-monotone heap path
	splits    int // RunUntil targets between a lane's head and its second entry
}

type firedEvent struct {
	At Time
	ID int
}

// orderSink is one receiver of packet events; the event's id rides in
// the arg word.
type orderSink struct{ rig *orderRig }

func (k *orderSink) DeliverAt(_ *core.Packet, arg uint64) { k.rig.ran(int(arg)) }

const orderLanes = 4

func newOrderRig(t *testing.T, seed int64, useLanes bool) *orderRig {
	g := &orderRig{
		t: t, s: New(1), r: rand.New(rand.NewSource(seed)), useLanes: useLanes,
		laneLast: make([]Time, orderLanes), budget: 3000,
		outstanding: map[int]Time{}, stopID: 700,
	}
	// One sink more than lanes: the last serves plain AtPacket events.
	for i := 0; i <= orderLanes; i++ {
		k := &orderSink{rig: g}
		g.sinks = append(g.sinks, k)
		if i < orderLanes && useLanes {
			g.lanes = append(g.lanes, g.s.NewLane(k))
		}
	}
	return g
}

// schedule makes one random scheduling call: a closure, a plain packet
// event, or an entry on one of the lanes.  Lane times mostly continue
// from the lane's newest entry in steps of 0..2 ns, so ties across
// lanes and with heap events are common; one call in sixteen reaches
// back before the newest entry and must take the fallback path.
func (g *orderRig) schedule() {
	if g.budget == 0 {
		return
	}
	g.budget--
	id := g.nextID
	g.nextID++
	now := g.s.Now()
	switch kind := g.r.Intn(orderLanes + 2); kind {
	case orderLanes:
		at := now + Time(g.r.Intn(40))
		g.outstanding[id] = at
		g.s.At(at, func() { g.ran(id) })
	case orderLanes + 1:
		at := now + Time(g.r.Intn(40))
		g.outstanding[id] = at
		g.s.AtPacket(at, g.sinks[orderLanes], nil, uint64(id))
	default:
		at := g.laneLast[kind]
		if at < now {
			at = now
		}
		if g.r.Intn(16) == 0 {
			at = now + Time(g.r.Intn(int(at-now)+1))
		} else {
			at += Time(g.r.Intn(3))
		}
		if at > g.laneLast[kind] {
			g.laneLast[kind] = at
		}
		g.outstanding[id] = at
		if !g.useLanes {
			g.s.AtPacket(at, g.sinks[kind], nil, uint64(id))
			return
		}
		l := g.lanes[kind]
		if l.ring.Len() > 0 && at < l.last {
			g.fallbacks++
		}
		l.At(at, nil, uint64(id))
	}
}

// ran is the body of every event: it checks the clock and the
// outstanding count, then schedules re-entrantly.
func (g *orderRig) ran(id int) {
	at, ok := g.outstanding[id]
	if !ok {
		g.t.Fatalf("event %d ran twice or was never scheduled", id)
	}
	delete(g.outstanding, id)
	if g.s.Now() != at {
		g.t.Fatalf("event %d scheduled for %v ran at %v", id, at, g.s.Now())
	}
	g.fired = append(g.fired, firedEvent{at, id})
	g.checkPending()
	for n := g.r.Intn(3); n > 0; n-- {
		g.schedule()
		g.checkPending()
	}
	if id == g.stopID {
		g.s.Stop()
		g.stopped = true
	}
}

func (g *orderRig) checkPending() {
	if got := g.s.Pending(); got != len(g.outstanding) {
		g.t.Fatalf("Pending() = %d with %d events outstanding", got, len(g.outstanding))
	}
}

// splitsLane reports whether target falls between some lane's head and
// its second entry.
func (g *orderRig) splitsLane(target Time) bool {
	for _, l := range g.lanes {
		if l.ring.Len() >= 2 && l.ring.At(0).at <= target && target < l.ring.At(1).at {
			return true
		}
	}
	return false
}

func (g *orderRig) run() []firedEvent {
	for i := 0; i < 300; i++ {
		g.schedule()
		g.checkPending()
	}
	for len(g.outstanding) > 0 {
		target := g.s.Now() + Time(g.r.Intn(6))
		if g.splitsLane(target) {
			g.splits++
		}
		g.s.RunUntil(target)
		g.checkPending()
		if g.stopped {
			// Stop returns after the stopping event and leaves the
			// clock at it; everything else is still queued.
			g.stopped = false
			if last := g.fired[len(g.fired)-1]; last.ID != g.stopID || g.s.Now() != last.At {
				g.t.Fatalf("Stop: last event %+v, now %v", last, g.s.Now())
			}
			continue
		}
		if g.s.Now() != target {
			g.t.Fatalf("RunUntil(%v) left the clock at %v", target, g.s.Now())
		}
		for id, at := range g.outstanding {
			if at <= target {
				g.t.Fatalf("RunUntil(%v) left event %d due at %v queued", target, id, at)
			}
		}
	}
	return g.fired
}

// The order events execute in is the (at, seq) order of the whole
// schedule, whether an event waited in the heap or in a lane, and is
// the same order the schedule produces with no lanes at all.
func TestLaneOrderDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		laned := newOrderRig(t, seed, true)
		got := laned.run()
		if len(got) != laned.nextID || laned.nextID < 1000 {
			t.Fatalf("seed %d: %d of %d events ran", seed, len(got), laned.nextID)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].At != got[j].At {
				return got[i].At < got[j].At
			}
			return got[i].ID < got[j].ID
		}) {
			t.Fatalf("seed %d: execution order is not the (at, seq) order", seed)
		}
		plain := newOrderRig(t, seed, false).run()
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("seed %d: laned and AtPacket-only runs executed in different orders", seed)
		}
		if laned.fallbacks == 0 || laned.splits == 0 {
			t.Fatalf("seed %d: schedule took %d fallbacks and %d lane-splitting RunUntil targets; want both",
				seed, laned.fallbacks, laned.splits)
		}
		st := laned.s.Stats()
		if st.Executed != uint64(len(got)) || st.HeapPeak > st.PendingPeak || st.PendingPeak < 300 {
			t.Fatalf("seed %d: stats %+v after %d events", seed, st, len(got))
		}
	}
}

// A lane holds many entries behind a single heap key, its ring grows
// while wrapped without reordering, and an emptied lane re-enters the
// heap on its next entry.
func TestLaneRingGrowth(t *testing.T) {
	s := New(1)
	var got []uint64
	k := deliverFunc(func(_ *core.Packet, arg uint64) { got = append(got, arg) })
	l := s.NewLane(k)
	next := uint64(0)
	add := func(n int, at Time) {
		for i := 0; i < n; i++ {
			l.At(at, nil, next)
			next++
		}
	}
	add(6, 10)
	s.RunUntil(10) // head is now mid-ring
	add(100, 20)   // wraps, then grows 8 -> 128
	if s.Pending() != 100 || len(s.keys) != 1 || l.ring.Cap() != 128 {
		t.Fatalf("pending %d, heap %d, ring %d", s.Pending(), len(s.keys), l.ring.Cap())
	}
	s.Run()
	if s.Pending() != 0 || l.ring.Len() != 0 {
		t.Fatalf("drained lane holds %d, pending %d", l.ring.Len(), s.Pending())
	}
	add(3, 30)
	s.Run()
	if len(got) != 109 {
		t.Fatalf("ran %d events", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("event %d ran in position %d", v, i)
		}
	}
	if st := s.Stats(); st.HeapPeak != 1 || st.PendingPeak != 100 || st.Executed != 109 {
		t.Fatalf("stats %+v", st)
	}
}

type deliverFunc func(*core.Packet, uint64)

func (f deliverFunc) DeliverAt(p *core.Packet, arg uint64) { f(p, arg) }

func TestLaneSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	l := s.NewLane(deliverFunc(func(*core.Packet, uint64) {}))
	s.RunUntil(100)
	defer func() {
		if recover() == nil {
			t.Error("past scheduling on a lane did not panic")
		}
	}()
	l.At(50, nil, 0)
}
