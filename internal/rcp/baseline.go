package rcp

import (
	"encoding/binary"
	"math"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
)

// Baseline is the native in-switch RCP implementation — the comparator
// curve of Figure 2 ("the original RCP algorithm available in ns2
// simulation").  Unlike RCP*, it requires the switch to run the control
// equation itself: exactly the specialized-ASIC functionality the paper
// argues TPPs make unnecessary.
//
// Each managed link maintains R(t), updated every T from the measured
// ingress byte rate and average queue, and stamps min(header, R) into
// the congestion header of every baseline data packet crossing it.
type Baseline struct {
	sim   *netsim.Sim
	links map[*asic.Switch]map[int]*BaselineLink
}

// NewBaseline builds the baseline controller.
func NewBaseline(sim *netsim.Sim) *Baseline {
	return &Baseline{sim: sim, links: make(map[*asic.Switch]map[int]*BaselineLink)}
}

// BaselineLink is the per-link RCP state of a native router.
type BaselineLink struct {
	sw   *asic.Switch
	port int

	rate float64 // R(t), bytes/sec

	lastEnqBytes uint64
	qSamples     float64
	qCount       int
}

// Rate returns R(t) in bytes/sec.
func (l *BaselineLink) Rate() float64 { return l.rate }

// Manage starts RCP on the egress link (sw, port) and installs the
// stamping hook.  All managed ports of one switch share one mirror.
func (b *Baseline) Manage(sw *asic.Switch, port int) *BaselineLink {
	capacity := float64(sw.Port(port).Channel().RateBytes())
	l := &BaselineLink{sw: sw, port: port, rate: capacity}
	if b.links[sw] == nil {
		b.links[sw] = make(map[int]*BaselineLink)
		links := b.links[sw]
		sw.SetMirror(func(pkt *core.Packet, in, out int) {
			if ml, ok := links[out]; ok {
				ml.stamp(pkt)
			}
		})
	}
	b.links[sw][port] = l

	// Sample the queue 8 times per control interval for q(t) ("q(t)
	// is the average queue size").
	b.sim.Every(b.sim.Now()+ControlPeriod/8, ControlPeriod/8, l.sampleQueue)
	b.sim.Every(b.sim.Now()+ControlPeriod, ControlPeriod, l.update)
	return l
}

func (l *BaselineLink) sampleQueue() {
	l.qSamples += float64(l.sw.Port(l.port).QueueBytes())
	l.qCount++
}

// update applies the control equation with y measured as the exact
// bytes enqueued toward this link during the last interval.
func (l *BaselineLink) update() {
	p := l.sw.Port(l.port)
	enq := p.EnqBytes()
	y := float64(enq-l.lastEnqBytes) / ControlPeriod.Seconds()
	l.lastEnqBytes = enq

	q := 0.0
	if l.qCount > 0 {
		q = l.qSamples / float64(l.qCount)
	}
	l.qSamples, l.qCount = 0, 0

	c := float64(p.Channel().RateBytes())
	l.rate = nextRate(l.rate, y, q, c)
}

// stamp writes min(header, R) into a baseline data packet's congestion
// header: "each router checks if its estimate of R(t) is smaller than
// the flow's fair-share (indicated on each packet's header); if so, it
// replaces the flow's fair share header value with R(t)".
func (l *BaselineLink) stamp(pkt *core.Packet) {
	if pkt.UDP == nil || pkt.UDP.DstPort != BaselineDataPort || len(pkt.Payload) < RateHeaderLen {
		return
	}
	cur := binary.BigEndian.Uint32(pkt.Payload)
	r := uint32(math.Min(l.rate, float64(^uint32(0))))
	if r < cur {
		binary.BigEndian.PutUint32(pkt.Payload, r)
	}
}

// BaselineReceiver aggregates the stamped rates of arriving data
// packets and periodically feeds the minimum back to the sender, the
// way RCP receivers echo the header in ACKs.
type BaselineReceiver struct {
	host    *endhost.Host
	sim     *netsim.Sim
	minSeen uint32
	srcMAC  core.MAC
	srcIP   uint32
	have    bool
}

// NewBaselineReceiver builds the receiver side on host, sending
// feedback every control period; whoever owns the host's
// BaselineDataPort handler feeds it each data packet through onData.
func NewBaselineReceiver(sim *netsim.Sim, host *endhost.Host) *BaselineReceiver {
	r := &BaselineReceiver{host: host, sim: sim, minSeen: ^uint32(0)}
	sim.Every(sim.Now()+ControlPeriod, ControlPeriod, r.feedback)
	return r
}

func (r *BaselineReceiver) onData(pkt *core.Packet) {
	if len(pkt.Payload) < RateHeaderLen || pkt.IP == nil {
		return
	}
	rate := binary.BigEndian.Uint32(pkt.Payload)
	if rate < r.minSeen {
		r.minSeen = rate
	}
	r.srcMAC, r.srcIP = pkt.Eth.Src, pkt.IP.Src
	r.have = true
}

func (r *BaselineReceiver) feedback() {
	if !r.have {
		return
	}
	fb := r.host.NewPacket(r.srcMAC, r.srcIP, FeedbackPort, FeedbackPort, 0)
	fb.Payload = binary.BigEndian.AppendUint32(nil, r.minSeen)
	r.host.Send(fb)
	r.minSeen = ^uint32(0)
	r.have = false
}

// NewBaselineSender builds the sender side of one baseline flow: a
// paced flow whose packets open with the congestion header (initialized
// to "no limit" so the first switch's stamp always applies), retuned to
// the network's fair share by each feedback packet.
func NewBaselineSender(sim *netsim.Sim, host *endhost.Host, dstMAC core.MAC, dstIP uint32, initialRate float64) *PacedFlow {
	f := NewPacedFlow(sim, host, dstMAC, dstIP, BaselineDataPort,
		func() uint32 { return ^uint32(0) })
	f.SetRate(initialRate)
	host.Handle(FeedbackPort, func(pkt *core.Packet) {
		if len(pkt.Payload) >= RateHeaderLen {
			r := binary.BigEndian.Uint32(pkt.Payload)
			if r != ^uint32(0) {
				f.SetRate(float64(r))
			}
		}
	})
	return f
}

// baselineScheme runs native RCP on a Harness: the bottleneck switch
// computes R(t) and stamps it, receivers echo it, senders adopt it.
type baselineScheme struct{ link *BaselineLink }

func (s *baselineScheme) Install(h *Harness) {
	s.link = NewBaseline(h.Sim).Manage(h.A, h.APort)
}

func (s *baselineScheme) Attach(h *Harness, pair int) Flow {
	snd, rcv := h.Senders[pair], h.Receivers[pair]
	r := NewBaselineReceiver(h.Sim, rcv)
	f := NewBaselineSender(h.Sim, snd, rcv.MAC, rcv.IP, h.Capacity)
	return Flow{Port: BaselineDataPort, Receive: r.onData, Start: f.Start, Stop: f.Stop}
}

func (s *baselineScheme) FairShare() float64 { return s.link.Rate() }
