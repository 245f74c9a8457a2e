// Package aimd implements a TCP-style additive-increase /
// multiplicative-decrease rate controller as the legacy comparator for
// the congestion-control experiment: the paper motivates RCP precisely
// against this behaviour ("TCP and its variants still remain the
// dominant congestion control algorithms") — AIMD discovers the fair
// share by filling queues and inducing loss, where RCP/RCP* read the
// network's state directly.
//
// The sender paces sequence-numbered UDP datagrams through the shared
// rcp.PacedFlow; the receiver returns periodic feedback (highest
// sequence seen, datagrams received in the window); the sender halves
// its rate on detected loss and adds one segment per feedback interval
// otherwise.  The scheme plugs into rcp.Harness beside RCP* and native
// RCP, and RunComparison measures any of the three on it.
package aimd

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/rcp"
)

// UDP ports of the AIMD experiment.
const (
	DataPort     = 8100
	FeedbackPort = 8101
)

// SegmentSize is the payload bytes per datagram (1000-byte frames).
const SegmentSize = rcp.PacketSize

// Params tunes the control loop.
type Params struct {
	// FeedbackEvery is the receiver's feedback period (an RTT-scale
	// clock, like TCP's ACK feedback).
	FeedbackEvery netsim.Time
	// Decrease is the multiplicative back-off factor on loss.
	Decrease float64
	// MinRate floors the sending rate, bytes/sec.
	MinRate float64
}

// DefaultParams mirrors TCP Reno-style behaviour at the Figure 2
// timescales.
func DefaultParams() Params {
	return Params{
		FeedbackEvery: 50 * netsim.Millisecond,
		Decrease:      0.5,
		MinRate:       SegmentSize, // one segment/sec
	}
}

// Sender is one AIMD flow: the AIMD rule retuning a paced flow whose
// datagrams open with a sequence number.
type Sender struct {
	*rcp.PacedFlow
	params Params

	// Telemetry.
	Backoffs   uint64
	Increments uint64
}

// NewSender builds a sender; feedback from the receiver arrives on
// FeedbackPort and retunes the rate.
func NewSender(sim *netsim.Sim, host *endhost.Host, dstMAC core.MAC, dstIP uint32, params Params, initialRate float64) *Sender {
	s := &Sender{params: params}
	s.PacedFlow = rcp.NewPacedFlow(sim, host, dstMAC, dstIP, DataPort,
		func() uint32 { return uint32(s.Sent) + 1 })
	s.SetRate(initialRate)
	host.Handle(FeedbackPort, s.onFeedback)
	return s
}

// onFeedback applies AIMD: halve on loss, add one segment per feedback
// interval otherwise.
func (s *Sender) onFeedback(pkt *core.Packet) {
	if len(pkt.Payload) < 8 {
		return
	}
	rate := s.Rate()
	if lost := binary.BigEndian.Uint32(pkt.Payload[4:8]); lost > 0 {
		rate *= s.params.Decrease
		s.Backoffs++
	} else {
		// Additive increase: one segment per feedback interval, the
		// rate-based analogue of TCP's one-MSS-per-RTT window growth.
		rate += SegmentSize / s.params.FeedbackEvery.Seconds()
		s.Increments++
	}
	if rate < s.params.MinRate {
		rate = s.params.MinRate
	}
	s.SetRate(rate)
}

// Receiver tracks sequence numbers and reports loss back to the sender.
type Receiver struct {
	host *endhost.Host
	sim  *netsim.Sim

	srcMAC core.MAC
	srcIP  uint32
	have   bool

	maxSeq   uint32
	lastMax  uint32
	received uint32
}

// NewReceiver builds the receiver side on host; whoever owns the host's
// DataPort handler feeds it each datagram through onData.
func NewReceiver(sim *netsim.Sim, host *endhost.Host, params Params) *Receiver {
	r := &Receiver{host: host, sim: sim}
	sim.Every(sim.Now()+params.FeedbackEvery, params.FeedbackEvery, r.feedback)
	return r
}

func (r *Receiver) onData(pkt *core.Packet) {
	if len(pkt.Payload) < 4 || pkt.IP == nil {
		return
	}
	seq := binary.BigEndian.Uint32(pkt.Payload)
	if seq > r.maxSeq {
		r.maxSeq = seq
	}
	r.received++
	r.srcMAC, r.srcIP = pkt.Eth.Src, pkt.IP.Src
	r.have = true
}

func (r *Receiver) feedback() {
	if !r.have {
		return
	}
	expected := r.maxSeq - r.lastMax
	var lost uint32
	if expected > r.received {
		lost = expected - r.received
	}
	r.lastMax = r.maxSeq
	r.received = 0

	fb := r.host.NewPacket(r.srcMAC, r.srcIP, FeedbackPort, FeedbackPort, 0)
	fb.Payload = binary.BigEndian.AppendUint32(nil, r.maxSeq)
	fb.Payload = binary.BigEndian.AppendUint32(fb.Payload, lost)
	r.host.Send(fb)
}

// scheme runs AIMD on an rcp.Harness: nothing in the switches, a loss
// tracker at each receiver, the AIMD rule at each sender.
type scheme struct{}

func (scheme) Install(*rcp.Harness) {}

func (scheme) Attach(h *rcp.Harness, pair int) rcp.Flow {
	params := DefaultParams()
	snd, rcv := h.Senders[pair], h.Receivers[pair]
	r := NewReceiver(h.Sim, rcv, params)
	s := NewSender(h.Sim, snd, rcv.MAC, rcv.IP, params,
		float64(SegmentSize)/params.FeedbackEvery.Seconds())
	return rcp.Flow{Port: DataPort, Receive: r.onData, Start: s.Start, Stop: s.Stop}
}

// FairShare is zero: AIMD advertises no rate, flows find it by loss.
func (scheme) FairShare() float64 { return 0 }

// SchemeFor resolves any of the three schemes: AIMD here, the RCP pair
// in package rcp.
func SchemeFor(v rcp.Variant) rcp.Scheme {
	if v == rcp.VariantAIMD {
		return scheme{}
	}
	return rcp.SchemeFor(v)
}
