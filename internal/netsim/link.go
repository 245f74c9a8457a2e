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
	// Receive is called when the last bit of the packet arrives on
	// the receiver's port.
	Receive(pkt *core.Packet, port int)
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

	busyUntil Time
	onIdle    func()
	idleFn    func() // c.notifyIdle bound once; queued when a wake-up is asked

	// The transmit-complete event of the transmission in progress: Send
	// reserves its seq, WakeWhenIdle queues it.  idleAsked starts set —
	// before the first Send there is nothing to ask for — and stays set
	// on a zero-delay link, whose arrival event carries the callback.
	idleSeq   uint64
	idleAsked bool

	// arrivals holds the frames on the wire: the transmitter
	// serializes, so last-bit arrival times never decrease.
	arrivals *Lane

	loss LossModel

	// down is set while the link is administratively or physically
	// down (fault injection).  The transmitter keeps clocking frames
	// out — the owner's queue must not stall — but nothing arrives.
	// downEpoch increments on every transition to down so frames in
	// flight at that moment are dropped too.
	down      bool
	downEpoch uint64

	// Packet-lifecycle tracing (nil when telemetry is disabled).
	trace   *obs.Tracer
	traceID uint32

	// Counters read by the port statistics machinery.
	BytesSent   uint64
	PacketsSent uint64
	// WakeupsAsked counts transmit-complete events queued on request
	// (WakeWhenIdle): on a link with propagation delay, the sends that
	// ended with a frame waiting behind them.
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
	c := &Channel{sim: sim, rate: rate, delay: delay, dst: dst, dstPort: dstPort, idleAsked: true}
	c.idleFn = c.notifyIdle
	c.arrivals = sim.NewLane(c)
	return c
}

func (c *Channel) notifyIdle() {
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
// transmission only if the owner called WakeWhenIdle during it; a
// callback nobody asked for may still run (zero-delay links always
// deliver it), so it must tolerate finding nothing to do.
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
	// Split so that the check inlines into the owners' kick: on a
	// zero-delay link that is all a call ever costs.
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
	c.sim.atReserved(c.busyUntil, c.idleSeq, c.idleFn)
}

// SetLoss makes the channel drop each frame independently with
// probability p, using its own deterministic random source — the
// failure-injection knob for robustness tests ("TPPs are therefore
// subject to congestion", and on real links to corruption too).
// p covers the closed interval [0, 1]: p == 1 is a total blackout.
func (c *Channel) SetLoss(p float64, seed int64) {
	c.loss = NewBernoulli(p, seed)
}

// SetLossModel installs an arbitrary loss model (nil restores lossless
// operation); see Bernoulli and GilbertElliott.
func (c *Channel) SetLossModel(m LossModel) { c.loss = m }

// SetUp raises or severs the link.  Taking the link down drops every
// frame currently in flight and every frame transmitted while down;
// the transmitter keeps serializing (so the owner's queue drains and
// recovery needs no special kick), but nothing reaches the far end.
func (c *Channel) SetUp(up bool) {
	if up == !c.down {
		return
	}
	c.down = !up
	if c.down {
		c.downEpoch++
	}
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
func (c *Channel) Send(pkt *core.Packet) Time {
	if c.Busy() {
		panic("netsim: Send on busy channel")
	}
	wire := pkt.WireLen()
	ser := c.SerializationDelay(wire)
	done := c.sim.Now() + ser
	c.busyUntil = done
	c.BytesSent += uint64(wire)
	c.PacketsSent++
	c.span(pkt, obs.StageLinkTx, uint64(wire), uint64(ser))
	// The frame's fate is decided now (loss models are sampled in
	// transmission order, keeping runs seed-replayable), but counted
	// and recorded when the last bit would have arrived.  The fate and
	// link epoch are packed into the event's arg word so the arrival
	// path captures nothing (see DeliverAt).
	downAtSend := c.down
	lost := !downAtSend && c.loss != nil && c.loss.Lost()
	arg := c.downEpoch << 3
	if downAtSend {
		arg |= argDown
	}
	if lost {
		arg |= argLost
	}
	if c.delay == 0 {
		// The transmit-complete interrupt and the last-bit arrival
		// coincide; fold both into one event, firing idle first — the
		// same order the two separate events have on delayed links.
		c.arrivals.At(done, pkt, arg|argIdle)
	} else {
		// Transmit-complete precedes the arrival in the event order, so
		// its seq is taken first; the event itself waits to be asked for.
		c.idleSeq = c.sim.reserveSeq()
		c.idleAsked = false
		c.arrivals.At(done+c.delay, pkt, arg)
	}
	return done
}

// Arrival event arg layout: fate bits below the send-time link epoch.
const (
	argDown = 1 << 0
	argLost = 1 << 1
	argIdle = 1 << 2
)

// DeliverAt implements PacketDelivery: the frame's last bit arrives.
// On the delivery path the frame's length is a span argument only, so it
// is computed only when tracing is on.
//
//alloc:free
func (c *Channel) DeliverAt(pkt *core.Packet, arg uint64) {
	if arg&argIdle != 0 {
		c.notifyIdle()
	}
	switch {
	case arg&argDown != 0, c.down, c.downEpoch != arg>>3:
		// Sent into, or overtaken by, a dead link.
		c.PacketsDownDrops++
		c.span(pkt, obs.StageLinkDown, uint64(pkt.WireLen()), 0)
		pkt.Recycle()
	case arg&argLost != 0:
		// The frame occupied the wire but arrives corrupted and is
		// discarded by the receiver's FCS check.
		c.PacketsLost++
		c.span(pkt, obs.StageLinkLoss, uint64(pkt.WireLen()), 0)
		pkt.Recycle()
	default:
		if c.trace != nil {
			c.span(pkt, obs.StageLinkRx, uint64(c.dstPort), uint64(pkt.WireLen()))
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
func (c *Channel) span(pkt *core.Packet, stage obs.Stage, a, b uint64) {
	if c.trace != nil {
		c.recordSpan(pkt, stage, a, b)
	}
}

// recordSpan is span's body, kept out of line so that span stays
// within the inlining budget.
//
//alloc:free
//go:noinline
func (c *Channel) recordSpan(pkt *core.Packet, stage obs.Stage, a, b uint64) {
	c.trace.Record(obs.SpanEvent{
		At: int64(c.sim.Now()), UID: pkt.Meta.UID, Node: c.traceID,
		Stage: stage, A: a, B: b,
	})
}
