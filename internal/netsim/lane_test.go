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
// of At, AtPacket, lane.at and Timer.Reset takes exactly one; Timer.Stop
// takes none), so the reference execution order is the schedule's live
// events sorted by (at, id): a timer arm that was stopped or superseded
// leaves the reference the moment it is called off.  With useLanes
// false the same schedule is replayed on the heap alone: every lane.at
// swapped for AtPacket on the same receiver, and every timer arm for a
// closure that checks, when it fires, whether it is still its timer's
// live arm — the hand-rolled guard a Timer replaces.
type orderRig struct {
	t        *testing.T
	s        *Sim
	r        *rand.Rand
	useLanes bool
	lanes    []*lane
	sinks    []*orderSink
	laneLast []Time // newest firing time handed to each lane
	timers   []*Timer
	timerArm []int // id of each timer's live arm, or -1

	nextID      int
	budget      int          // scheduling calls left
	outstanding map[int]Time // id -> firing time, for live events not yet run
	zombies     int          // useLanes false: called-off arms still queued as guarded closures

	fired     []firedEvent
	splits    int // RunUntil targets between a lane's head and its second entry
	calledOff int // timer arms stopped or superseded
	rearmed   int // Resets from inside the timer's own callback
	restacked int // Resets that superseded a live arm
}

type firedEvent struct {
	At Time
	ID int
}

// orderSink is one receiver of packet events; the event's id rides in
// the arg word.
type orderSink struct{ rig *orderRig }

func (k *orderSink) DeliverAt(_ *core.Packet, arg uint64) { k.rig.ran(int(arg)) }

const (
	orderLanes  = 4
	orderTimers = 3
)

func newOrderRig(t *testing.T, seed int64, useLanes bool) *orderRig {
	g := &orderRig{
		t: t, s: New(1), r: rand.New(rand.NewSource(seed)), useLanes: useLanes,
		laneLast: make([]Time, orderLanes), budget: 3000,
		outstanding: map[int]Time{},
	}
	for k := 0; k < orderTimers; k++ {
		k := k
		g.timerArm = append(g.timerArm, -1)
		g.timers = append(g.timers, g.s.NewTimer(func() { g.timerFired(k) }))
	}
	// One sink more than lanes: the last serves plain AtPacket events.
	for i := 0; i <= orderLanes; i++ {
		k := &orderSink{rig: g}
		g.sinks = append(g.sinks, k)
		if i < orderLanes && useLanes {
			g.lanes = append(g.lanes, g.s.newLane(k))
		}
	}
	return g
}

// schedule makes one random scheduling call: a closure, a plain packet
// event, an entry on one of the lanes, or a timer operation.  Lane
// times continue from the lane's newest entry (or now, if that is
// later) in steps of 0..2 ns, so ties across lanes and with heap events
// are common.
func (g *orderRig) schedule() {
	if g.budget == 0 {
		return
	}
	g.budget--
	kind := g.r.Intn(orderLanes + 3)
	if kind == orderLanes+2 {
		g.timerOp(g.r.Intn(orderTimers))
		return
	}
	id := g.nextID
	g.nextID++
	now := g.s.Now()
	switch kind {
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
		at += Time(g.r.Intn(3))
		g.laneLast[kind] = at
		g.outstanding[id] = at
		if !g.useLanes {
			g.s.AtPacket(at, g.sinks[kind], nil, uint64(id))
			return
		}
		g.lanes[kind].at(at, nil, uint64(id))
	}
}

// timerOp stops timer k (one time in four, when it is armed) or resets
// it to a time up to 40 ns ahead, superseding its live arm if it has
// one.  Only a Reset takes an id.
func (g *orderRig) timerOp(k int) {
	if g.timerArm[k] >= 0 && g.r.Intn(4) == 0 {
		g.callOff(k)
		if g.useLanes {
			g.timers[k].Stop()
		}
		return
	}
	if g.timerArm[k] >= 0 {
		g.callOff(k)
		g.restacked++
	}
	id := g.nextID
	g.nextID++
	at := g.s.Now() + Time(g.r.Intn(40))
	g.outstanding[id] = at
	g.timerArm[k] = id
	if g.useLanes {
		g.timers[k].Reset(at)
		return
	}
	g.s.At(at, func() {
		if g.timerArm[k] != id {
			g.zombies--
			return // stopped or superseded: the guard a Timer makes unnecessary
		}
		g.timerFired(k)
	})
}

// callOff takes timer k's live arm out of the reference.
func (g *orderRig) callOff(k int) {
	delete(g.outstanding, g.timerArm[k])
	g.timerArm[k] = -1
	g.calledOff++
	if !g.useLanes {
		g.zombies++
	}
}

// timerFired is every timer's callback: the arm is spent before the
// body runs, and one firing in three re-arms from inside it.
func (g *orderRig) timerFired(k int) {
	id := g.timerArm[k]
	g.timerArm[k] = -1
	if g.useLanes && g.timers[k].Armed() {
		g.t.Fatalf("timer %d still armed inside its callback", k)
	}
	rearm := g.budget > 0 && g.r.Intn(3) == 0
	if rearm {
		g.budget--
		g.rearmed++
		g.timerOp(k)
	}
	g.ran(id)
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
}

func (g *orderRig) checkPending() {
	if got, want := g.s.Pending(), len(g.outstanding)+g.zombies; got != want {
		g.t.Fatalf("Pending() = %d with %d events outstanding", got, want)
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

// The order events execute in is the (at, seq) order of the schedule's
// live events, whether an event waited in the heap, in a lane or as a
// timer's arm, and is the same order the schedule produces with no
// lanes and no timers at all; an arm that was stopped or superseded
// never runs and is not pending.
func TestLaneOrderDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		laned := newOrderRig(t, seed, true)
		got := laned.run()
		if len(got) != laned.nextID-laned.calledOff || laned.nextID < 1000 {
			t.Fatalf("seed %d: %d of %d events ran, %d called off", seed, len(got), laned.nextID, laned.calledOff)
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
		if laned.splits == 0 {
			t.Fatalf("seed %d: schedule took no lane-splitting RunUntil target", seed)
		}
		if laned.calledOff < 50 || laned.restacked == 0 || laned.rearmed == 0 {
			t.Fatalf("seed %d: %d arms called off (%d by a Reset while armed), %d re-armed from their callback; want all three",
				seed, laned.calledOff, laned.restacked, laned.rearmed)
		}
		st := laned.s.Stats()
		if st.Executed != uint64(len(got)) || st.Discarded != uint64(laned.calledOff) || st.PendingPeak < 200 {
			t.Fatalf("seed %d: stats %+v after %d events, %d arms called off", seed, st, len(got), laned.calledOff)
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
	l := s.newLane(k)
	next := uint64(0)
	add := func(n int, at Time) {
		for i := 0; i < n; i++ {
			l.at(at, nil, next)
			next++
		}
	}
	add(6, 10)
	s.RunUntil(10) // head is now mid-ring
	add(100, 20)   // wraps, then grows 8 -> 128
	// The ring keeps its backing array to itself; reflect reads its length.
	backing := reflect.ValueOf(&l.ring).Elem().FieldByName("buf").Len()
	if s.Pending() != 100 || len(s.keys) != 1 || backing != 128 {
		t.Fatalf("pending %d, heap %d, ring %d", s.Pending(), len(s.keys), backing)
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

// A lane refuses an entry before now, and one before its newest entry:
// either would break the ring's (at, seq) order.
func TestLaneSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	l := s.newLane(deliverFunc(func(*core.Packet, uint64) {}))
	s.RunUntil(100)
	panics := func(what string, at Time) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a lane did not panic", what)
			}
		}()
		l.at(at, nil, 0)
	}
	panics("past scheduling", 50)
	l.at(200, nil, 0)
	panics("scheduling before the newest entry", 150)
	if l.ring.Len() != 1 || s.Pending() != 1 {
		t.Fatalf("refused entries were queued: ring %d, pending %d", l.ring.Len(), s.Pending())
	}
}
