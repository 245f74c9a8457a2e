package netsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ring"
)

// lane is a FIFO event source for a scheduler whose firing times never
// decrease — one direction of a serializing link, whose deliveries
// follow the transmitter's order.  Such events are born sorted by (at, seq), so they
// wait in the lane's ring in arrival order and only the head entry
// holds a key in the Sim's heap; the order events execute in is exactly
// the order AtPacket would have given them.  A lane belongs to the Sim
// that made it and delivers every event to one PacketDelivery.
type lane struct {
	sim  *Sim
	pd   PacketDelivery
	id   int32
	ring ring.Buf[laneEvent]
	last Time // firing time of the newest entry
}

type laneEvent struct {
	at  Time
	seq uint64
	pkt *core.Packet
	arg uint64
}

// newLane returns an empty lane delivering to pd.  Its ring is
// allocated on first use and doubles when full.
func (s *Sim) newLane(pd PacketDelivery) *lane {
	l := &lane{sim: s, pd: pd, id: int32(len(s.lanes))}
	s.lanes = append(s.lanes, l)
	return l
}

// at schedules pd.DeliverAt(pkt, arg) at absolute time t, taking the
// next seq exactly as AtPacket does.  A t earlier than the lane's newest
// entry would break the ring's order, so it panics, as scheduling before
// now does: a Channel's delivery times never decrease.
//
//alloc:free
func (l *lane) at(t Time, pkt *core.Packet, arg uint64) {
	s := l.sim
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, s.now))
	}
	if l.ring.Len() == 0 {
		s.push(t, ^l.id)
	} else {
		if t < l.last {
			panic(fmt.Sprintf("netsim: lane scheduling at %v before its newest entry at %v", t, l.last))
		}
		s.seq++
		s.backlog++
		s.notePending()
	}
	l.ring.Push(laneEvent{at: t, seq: s.seq, pkt: pkt, arg: arg})
	l.last = t
}
