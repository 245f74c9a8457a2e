package netsim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
)

// Receiver is anything that can accept a packet from a link: a switch
// ingress pipeline or a host NIC.
type Receiver interface {
	// Receive is called when the last bit of the packet has arrived on
	// the receiver's port — for a Pipelined receiver, once its pipeline
	// latency has elapsed after that.
	Receive(pkt *core.Packet, port int)
}

// Pipelined is a Receiver with a fixed-latency ingress pipeline, a
// switch's parse/lookup stages.  A Channel into one delivers each frame
// when that latency has elapsed after its last bit arrived, in one
// event: the receiver does its arrival-time work then, at arrival time
// now − latency.
type Pipelined interface {
	Receiver
	// Inbound tells the receiver that c feeds port and returns its
	// pipeline latency.
	Inbound(port int, c *Channel) Time
}

// Channel is one direction of a link: a serializing transmitter with a
// fixed bit rate and propagation delay.  The owning node (switch port
// or host NIC) is responsible for queueing; a Channel transmits one
// packet at a time and reports idleness through the OnIdle callback, a
// cut at the same place as a real MAC's transmit-complete interrupt —
// one the owner unmasks, with WakeWhenIdle, only while it has a frame
// waiting.
type Channel struct {
	sim   *Sim
	rate  int64 // bits per second
	delay Time

	dst     Receiver
	dstPort int
	// lat is the receiver's pipeline latency (Pipelined), 0 for a host:
	// a frame is delivered lat after its last bit arrives.
	lat Time

	busyUntil Time
	onIdle    func()
	idleFn    func() // c.fireIdle bound once; queued when a wake-up is asked

	// The transmit-complete event of the transmission in progress: Send
	// reserves its seq, WakeWhenIdle queues it (into idleSlot until it
	// runs).  idleAsked starts set: before the first Send there is
	// nothing to ask for.  sentAt is where the reserving Send ran, which
	// CompleteNow's callers compare against.
	idleSeq   uint64
	sentAt    Stamp
	idleSlot  int32
	idleAsked bool
	// down is set while the link is administratively or physically
	// down (fault injection).  The transmitter keeps clocking frames
	// out — the owner's queue must not stall — but nothing arrives.
	// Frames sent while down, and those still on the wire when the link
	// goes down, carry argDown.
	down bool

	// arrivals holds the frames on the wire and, on a link into a
	// Pipelined receiver, those in its pipeline: the transmitter
	// serializes, so delivery times never decrease.
	arrivals *lane

	loss LossModel

	// Packet-lifecycle tracing (nil when telemetry is disabled).
	trace   *obs.Tracer
	traceID uint32

	// Counters read by the port statistics machinery.
	BytesSent   uint64
	PacketsSent uint64
	// WakeupsAsked counts transmit-complete events queued on request
	// (WakeWhenIdle): the sends that ended with a frame waiting behind
	// them.
	WakeupsAsked uint64
	// PacketsLost counts frames corrupted in flight by the loss model.
	PacketsLost uint64
	// PacketsDownDrops counts frames dropped because the link was (or
	// went) down while they were on the wire.
	PacketsDownDrops uint64
}

// NewChannel builds a channel delivering to dst's port dstPort at rate
// bits/second with the given propagation delay.  Channels start up.
func NewChannel(sim *Sim, rate int64, delay Time, dst Receiver, dstPort int) *Channel {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: channel rate %d must be positive", rate))
	}
	if delay < 0 {
		panic("netsim: negative propagation delay")
	}
	c := &Channel{sim: sim, rate: rate, delay: delay, dst: dst, dstPort: dstPort,
		idleSlot: disarmed, idleAsked: true}
	if p, ok := dst.(Pipelined); ok {
		c.lat = p.Inbound(dstPort, c)
	}
	c.idleFn = c.fireIdle
	c.arrivals = sim.newLane(c)
	return c
}

// fireIdle is the queued transmit-complete event.
func (c *Channel) fireIdle() {
	c.idleSlot = disarmed
	if c.onIdle != nil {
		c.onIdle()
	}
}

// RateBytes returns the channel capacity in bytes per second, the unit
// the TPP memory map exposes ([Link:Capacity]).  The register is 32
// bits wide, so capacities beyond ~34.4 Gb/s saturate at MaxUint32
// instead of wrapping around.
func (c *Channel) RateBytes() uint32 {
	bytesPerSec := c.rate / 8
	if bytesPerSec > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(bytesPerSec)
}

// SetOnIdle registers the transmit-complete callback; the owner uses it
// to dequeue the next packet.  It is guaranteed to run at the end of a
// transmission only if the owner called WakeWhenIdle during it; the
// owner may have nothing left to send by then (a reboot flushes its
// queue), so it must tolerate finding nothing to do.
func (c *Channel) SetOnIdle(fn func()) { c.onIdle = fn }

// WakeWhenIdle asks for the OnIdle callback when the transmission in
// progress completes.  The owner calls it whenever it holds a frame the
// busy channel could not take: on finding the channel busy, and after a
// Send that left frames queued.  The event is queued at the seq Send
// reserved, so it runs exactly where an unconditional transmit-complete
// event scheduled by Send would have — asking late changes nothing but
// whether the no-op ones exist.  Asking twice, or with no transmission
// to wait for, does nothing.
//
//alloc:free
func (c *Channel) WakeWhenIdle() {
	// Split so that the check inlines into the owners' kick: once the
	// wake-up is queued, that is all a call costs.
	if !c.idleAsked {
		c.queueIdle()
	}
}

//alloc:free
func (c *Channel) queueIdle() {
	if c.busyUntil < c.sim.now {
		return // the transmission is over: nothing left to wait for
	}
	c.idleAsked = true
	c.WakeupsAsked++
	c.idleSlot = c.sim.atReserved(c.busyUntil, c.idleSeq, c.idleFn)
}

// DueBefore reports whether a transmit-complete event is queued for now
// that the Send of a transmission which began before at in the event
// order reserved, and the seq it is queued at.  That is the event a
// receiver's pipeline stage for a frame that arrived at at had to wait
// for when the stage was an event of its own, queued on arrival.
//
//alloc:free
func (c *Channel) DueBefore(at Stamp) (seq uint64, due bool) {
	if c.idleSlot == disarmed || c.busyUntil != c.sim.now || !c.sentAt.Before(at) {
		return 0, false
	}
	return c.idleSeq, true
}

// CompleteNow runs the transmit-complete event DueBefore reported, now,
// ahead of its place in the queue; the event does not run again.
//
//alloc:free
func (c *Channel) CompleteNow() {
	slot := c.idleSlot
	c.idleSlot = disarmed
	c.sim.runEarly(slot, c.idleSeq)
}

// SetLossModel installs an arbitrary loss model (nil restores lossless
// operation); see GilbertElliott.
func (c *Channel) SetLossModel(m LossModel) { c.loss = m }

// SetUp raises or severs the link.  Taking the link down drops every
// frame currently in flight and every frame transmitted while down;
// the transmitter keeps serializing (so the owner's queue drains and
// recovery needs no special kick), but nothing reaches the far end.  A
// frame whose last bit arrived before the cut, in the event order, is
// through, though a Pipelined receiver may not have taken it yet.
func (c *Channel) SetUp(up bool) {
	if up == !c.down {
		return
	}
	c.down = !up
	if !c.down {
		return
	}
	now := c.sim.Stamp()
	for i := c.arrivals.ring.Len() - 1; i >= 0; i-- {
		e := c.arrivals.ring.At(i)
		if !now.Before(Stamp{At: e.at - c.lat, Seq: e.seq}) {
			break // arrived; so did every frame ahead of it
		}
		e.arg |= argDown
	}
}

// ArrivedBytes returns the wire bytes of the frames whose last bit
// arrived in (after, upTo] of the event order and which a Pipelined
// receiver has not taken yet, lost and dropped frames not counted.
// Those frames are a prefix of the lane: delivery times are arrival
// times plus a constant.
//
//alloc:free
func (c *Channel) ArrivedBytes(after, upTo Stamp) uint64 {
	var n uint64
	for i := 0; i < c.arrivals.ring.Len(); i++ {
		e := c.arrivals.ring.At(i)
		at := Stamp{At: e.at - c.lat, Seq: e.seq}
		if upTo.Before(at) {
			break
		}
		if after.Before(at) && e.arg&(argDown|argLost) == 0 {
			n += uint64(e.pkt.WireLen())
		}
	}
	return n
}

// SetTrace attaches the packet-lifecycle tracer; id identifies this
// channel in link span events (serialization start, loss, delivery).
// A nil tracer disables link tracing at zero per-packet cost.
func (c *Channel) SetTrace(tr *obs.Tracer, id uint32) {
	c.trace = tr
	c.traceID = id
}

// TraceID returns the identifier link span events carry (0 when
// tracing was never attached).
func (c *Channel) TraceID() uint32 { return c.traceID }

// Busy reports whether a transmission is in progress.
func (c *Channel) Busy() bool { return c.sim.Now() < c.busyUntil }

// IdleAt returns when the latest transmission ends, or ended: where a
// transmit-complete asked for now is queued.
func (c *Channel) IdleAt() Time { return c.busyUntil }

// SerializationDelay returns how long a frame of n bytes occupies the
// transmitter.
func (c *Channel) SerializationDelay(n int) Time {
	return Time(int64(n) * 8 * int64(Second) / c.rate)
}

// Send begins transmitting pkt.  It must only be called when the
// channel is idle (check Busy, and ask WakeWhenIdle to be called back
// when it is not); calling it while busy panics because it means the
// owner's queueing is broken.  It returns the time the last bit leaves
// the transmitter.
//
//alloc:free
func (c *Channel) Send(pkt *core.Packet) Time { return c.SendLen(pkt, pkt.WireLen()) }

// SendLen is Send for a frame whose wire length the owner already
// knows (a switch stamps it into the packet's metadata at the parser).
//
//alloc:free
func (c *Channel) SendLen(pkt *core.Packet, wire int) Time {
	if c.Busy() {
		panic("netsim: Send on busy channel")
	}
	ser := c.SerializationDelay(wire)
	done := c.sim.now + ser
	c.busyUntil = done
	c.BytesSent += uint64(wire)
	c.PacketsSent++
	c.span(pkt, c.sim.now, obs.StageLinkTx, uint64(wire), uint64(ser))
	// The frame's fate is decided now (loss models are sampled in
	// transmission order, keeping runs seed-replayable), but counted
	// and recorded at its last bit's arrival.  It rides in the event's
	// arg word so the delivery path captures nothing (see DeliverAt);
	// SetUp(false) marks the frames it catches on the wire.
	var arg uint64
	if c.down {
		arg = argDown
	} else if c.loss != nil && c.loss.Lost() {
		arg = argLost
	}
	// Transmit-complete precedes the arrival in the event order, so its
	// seq is taken first; the event itself waits to be asked for.
	c.idleSeq = c.sim.reserveSeq()
	c.idleAsked = false
	c.sentAt = c.sim.Stamp()
	c.arrivals.at(done+c.delay+c.lat, pkt, arg)
	return done
}

// Delivery event arg bits: the frame's fate.
const (
	argDown = 1 << 0
	argLost = 1 << 1
)

// DeliverAt implements PacketDelivery: the frame's last bit arrived,
// lat ago (its spans carry that time).  On the delivery path the
// frame's length is a span argument only, so it is computed only when
// tracing is on.
//
//alloc:free
func (c *Channel) DeliverAt(pkt *core.Packet, arg uint64) {
	at := c.sim.now - c.lat
	switch {
	case arg&argDown != 0:
		// Sent into, or overtaken by, a dead link.
		c.PacketsDownDrops++
		c.span(pkt, at, obs.StageLinkDown, uint64(pkt.WireLen()), 0)
		pkt.Recycle()
	case arg&argLost != 0:
		// The frame occupied the wire but arrives corrupted and is
		// discarded by the receiver's FCS check.
		c.PacketsLost++
		c.span(pkt, at, obs.StageLinkLoss, uint64(pkt.WireLen()), 0)
		pkt.Recycle()
	default:
		if c.trace != nil {
			c.span(pkt, at, obs.StageLinkRx, uint64(c.dstPort), uint64(pkt.WireLen()))
		}
		c.dst.Receive(pkt, c.dstPort)
	}
}

// span records one lifecycle event for pkt on this link.  Like the
// switch's, it is the tracing gate, inlined into every site: with
// tracing disabled a site pays one nil branch and builds no event.
//
//alloc:free
//alloc:inline
func (c *Channel) span(pkt *core.Packet, at Time, stage obs.Stage, a, b uint64) {
	if c.trace != nil {
		c.recordSpan(pkt, at, stage, a, b)
	}
}

// recordSpan is span's body, kept out of line so that span stays
// within the inlining budget.
//
//alloc:free
//go:noinline
func (c *Channel) recordSpan(pkt *core.Packet, at Time, stage obs.Stage, a, b uint64) {
	c.trace.Record(obs.SpanEvent{
		At: int64(at), UID: pkt.Meta.UID, Node: c.traceID,
		Stage: stage, A: a, B: b,
	})
}
