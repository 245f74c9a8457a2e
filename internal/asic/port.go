package asic

import (
	"math"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Port is one switch port: the egress side owns the queue and the
// transmit channel; the ingress side feeds the pipeline and maintains
// receive counters.  A switch's ports are one array, and the queue and
// both meters sit inside the port, so building a switch allocates per
// kind, not per port.
type Port struct {
	sw *Switch
	id int

	ch    *netsim.Channel // egress channel; nil while unwired
	in    *netsim.Channel // ingress channel; nil while unwired
	queue Queue           // the one drop-tail egress FIFO

	// Cumulative byte counters (wrap in the 32-bit register view).
	rxBytes uint64
	txBytes uint64

	rxUtil meter // traffic entering the egress link (enqueue rate)
	txUtil meter // traffic leaving on the wire

	// scratch is the per-port task scratch area ([Link:Scratch*]);
	// word 0 is the conventional RCP rate register.
	scratch [mem.PortScratchWords]uint32

	// snr is the wireless channel SNR register in centi-dB, updated
	// by access-point models (internal/wireless).
	snr uint32

	// Trusted marks whether TPPs arriving on this port are executed
	// and forwarded.  Untrusted edge ports strip TPPs (§4: "the
	// ingress switches at the network edge ... can strip TPPs
	// injected by VMs, or those TPPs received from the Internet").
	// It shares snr's word, which keeps Port at 280 bytes: a switch's
	// four ports in one 1 152-byte allocation.
	trusted bool

	// mQueueDepth is resolved at construction (nil when metrics are
	// disabled — recording through it is then a no-op).
	mQueueDepth *obs.Histogram // occupancy in bytes after each enqueue
}

// ID returns the port number.
func (p *Port) ID() int { return p.id }

// SetTrusted marks the port as a trusted (internal) or untrusted (edge)
// port for TPP admission.
//
//api:safety the §4 untrusted-edge strip, TestUntrustedPortStripsTPP
func (p *Port) SetTrusted(v bool) { p.trusted = v }

// Wire attaches the egress channel; the channel's idle callback drives
// the output scheduler.
func (p *Port) Wire(ch *netsim.Channel) {
	p.ch = ch
	ch.SetOnIdle(p.kick)
}

// Wired reports whether the port has an egress channel.
func (p *Port) Wired() bool { return p.ch != nil }

// Channel returns the egress channel (nil while unwired).
func (p *Port) Channel() *netsim.Channel { return p.ch }

// Queue returns the egress queue.
func (p *Port) Queue() *Queue { return &p.queue }

// QueueBytes returns the egress queue's instantaneous occupancy — the
// [Link:QueueSize] register.
func (p *Port) QueueBytes() int { return p.queue.Bytes() }

// Scratch returns task scratch word i ([Link:Scratch<i>]).
func (p *Port) Scratch(i int) uint32 { return p.scratch[i] }

// SetScratch writes task scratch word i; the control plane uses this
// to initialize task state (rcp.InitRateRegisters seeds the RCP rate
// register with the link capacity, §2.2 footnote).
func (p *Port) SetScratch(i int, v uint32) { p.scratch[i] = v }

// SetSNR updates the wireless SNR register (centi-dB).
func (p *Port) SetSNR(v uint32) { p.snr = v }

// DropBytes returns cumulative bytes tail-dropped at the egress queue.
func (p *Port) DropBytes() uint64 { return p.queue.DropBytes }

// dropPkts returns cumulative packets tail-dropped at the egress queue.
func (p *Port) dropPkts() uint64 { return p.queue.DropPkts }

// EnqBytes returns cumulative bytes enqueued at the egress queue.
func (p *Port) EnqBytes() uint64 { return p.queue.EnqBytes }

// rxBytesNow is the [Link:RX-Bytes] register: the bytes counted at the
// parser, plus those of the frames whose last bit has arrived but which
// the ingress link hands over only when the pipeline latency has
// elapsed, less those that landed while the switch was booting, which
// it never counts.
func (p *Port) rxBytesNow() uint64 {
	n := p.rxBytes
	if p.in == nil {
		return n
	}
	s, now := p.sw, p.sw.sim.Stamp()
	n += p.in.ArrivedBytes(netsim.Stamp{At: math.MinInt64}, now)
	if s.reboots > 0 {
		end := s.bootEnd
		if s.booting {
			end = now
		}
		n -= p.in.ArrivedBytes(s.rebootAt, end)
	}
	return n
}

// enqueue commits a packet to the egress queue, then kicks the
// scheduler.  It returns false when the queue dropped the packet.
//
//alloc:free
func (p *Port) enqueue(pkt *core.Packet) bool {
	wire := int(pkt.Meta.WireLen)
	if !p.queue.push(pkt, wire) {
		p.sw.span(pkt, obs.StageDrop, 0, uint64(wire))
		pkt.Recycle() // tail drop: the fabric destroys the packet here
		return false
	}
	p.mQueueDepth.Observe(uint64(p.queue.Bytes()))
	p.sw.span(pkt, obs.StageEnqueue, 0, uint64(p.queue.Bytes()))
	p.rxUtil.Add(wire) // demand entering the egress link
	p.kick()
	return true
}

// kick starts a transmission if the channel is idle and a packet is
// waiting, in arrival order.  Whenever it leaves a packet waiting — the
// channel is busy, or took one frame of several — it asks the channel
// for the transmit-complete wake-up, which does not come unasked.
//
//alloc:free
func (p *Port) kick() {
	if p.ch == nil {
		return
	}
	if p.ch.Busy() {
		p.wake()
		return
	}
	pkt, wire := p.queue.pop()
	if pkt == nil {
		return
	}
	p.txBytes += uint64(wire)
	p.txUtil.Add(wire)
	lat := uint64(int64(p.sw.sim.Now()) - pkt.Meta.EnqueuedAt)
	p.sw.m.hopLatency.Observe(lat)
	p.sw.span(pkt, obs.StageSched, 0, lat)
	p.ch.SendLen(pkt, wire)
	if p.queue.Len() > 0 {
		p.wake()
	}
}

// wake asks the busy channel for its transmit-complete and moves the
// switch's horizon of asked ones (see Switch.settle) out to it.
//
//alloc:free
func (p *Port) wake() {
	p.ch.WakeWhenIdle()
	if t := p.ch.IdleAt(); t > p.sw.wakeHorizon {
		p.sw.wakeHorizon = t
	}
}

// tick advances the port's rate meters by one statistics window.
//
//alloc:free
func (p *Port) tick() {
	p.rxUtil.Tick()
	p.txUtil.Tick()
}
