package netsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ring"
)

// Lane is a FIFO event source for a scheduler whose firing times never
// decrease — one direction of a serializing link, whose deliveries
// follow the transmitter's order.  Such events are born sorted by (at, seq), so they
// wait in the lane's ring in arrival order and only the head entry
// holds a key in the Sim's heap; the order events execute in is exactly
// the order AtPacket would have given them.  A Lane belongs to the Sim
// that made it and delivers every event to one PacketDelivery.
type Lane struct {
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

// NewLane returns an empty lane delivering to pd.  Its ring is
// allocated on first use and doubles when full.
func (s *Sim) NewLane(pd PacketDelivery) *Lane {
	l := &Lane{sim: s, pd: pd, id: int32(len(s.lanes))}
	s.lanes = append(s.lanes, l)
	return l
}

// At schedules pd.DeliverAt(pkt, arg) at absolute time t, taking the
// next seq exactly as AtPacket does.  A t earlier than the lane's
// newest entry would break the ring's order, so that event goes
// through the heap instead: still correct, just not cheap.
//
//alloc:free
func (l *Lane) At(t Time, pkt *core.Packet, arg uint64) {
	s := l.sim
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, s.now))
	}
	if l.ring.Len() > 0 && t < l.last {
		s.AtPacket(t, l.pd, pkt, arg)
		return
	}
	if l.ring.Len() == 0 {
		s.push(t, ^l.id)
	} else {
		s.seq++
		s.backlog++
		s.notePending()
	}
	l.ring.Push(laneEvent{at: t, seq: s.seq, pkt: pkt, arg: arg})
	l.last = t
}
