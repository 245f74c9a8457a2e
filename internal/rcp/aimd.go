package rcp

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
)

// aimdScheme is AIMD, a TCP-style additive-increase /
// multiplicative-decrease rate controller, the legacy comparator of the §2.2 experiments: the paper
// motivates RCP precisely against this behaviour ("TCP and its variants
// still remain the dominant congestion control algorithms") — AIMD
// discovers the fair share by filling queues and inducing loss, where
// RCP/RCP* read the network's state directly.
//
// The sender paces sequence-numbered datagrams through a PacedFlow; the
// receiver returns feedback every ControlPeriod (an RTT-scale clock,
// like TCP's ACK feedback: highest sequence seen, datagrams lost in the
// window); the sender halves its rate on detected loss and adds one
// PacketSize segment per feedback interval otherwise, flooring the rate
// at one segment per second.
//
// On a Harness it puts nothing in the switches, a loss tracker at each
// receiver and the AIMD rule at each sender.
type aimdScheme struct{}

func (aimdScheme) Install(*Harness) {}

func (aimdScheme) Attach(h *Harness, pair int) Flow {
	snd, rcv := h.Senders[pair], h.Receivers[pair]
	r := newAIMDReceiver(h.Sim, rcv)
	s := newAIMDSender(h.Sim, snd, rcv.MAC, rcv.IP,
		float64(PacketSize)/ControlPeriod.Seconds())
	return Flow{Port: aimdDataPort, Receive: r.onData, Start: s.Start, Stop: s.Stop}
}

// FairShare is zero: AIMD advertises no rate, flows find it by loss.
func (aimdScheme) FairShare() float64 { return 0 }

// aimdDecrease is the multiplicative back-off factor on loss.
const aimdDecrease = 0.5

// aimdSender is one AIMD flow: the AIMD rule retuning a paced flow whose
// datagrams open with a sequence number.
type aimdSender struct {
	*PacedFlow

	// Telemetry.
	backoffs   uint64
	increments uint64
}

// newAIMDSender builds a sender; feedback from the receiver arrives on
// aimdFeedbackPort and retunes the rate.
func newAIMDSender(sim *netsim.Sim, host *endhost.Host, dstMAC core.MAC, dstIP uint32, initialRate float64) *aimdSender {
	s := &aimdSender{}
	s.PacedFlow = newPacedFlow(sim, host, dstMAC, dstIP, aimdDataPort,
		func() uint32 { return uint32(s.Sent) + 1 })
	s.SetRate(initialRate)
	host.Handle(aimdFeedbackPort, s.onFeedback)
	return s
}

// onFeedback applies AIMD: halve on loss, add one segment per feedback
// interval otherwise.
func (s *aimdSender) onFeedback(pkt *core.Packet) {
	if len(pkt.Payload) < 8 {
		return
	}
	rate := s.Rate()
	if lost := binary.BigEndian.Uint32(pkt.Payload[4:8]); lost > 0 {
		rate *= aimdDecrease
		s.backoffs++
	} else {
		// Additive increase: one segment per feedback interval, the
		// rate-based analogue of TCP's one-MSS-per-RTT window growth.
		rate += PacketSize / ControlPeriod.Seconds()
		s.increments++
	}
	if rate < PacketSize {
		rate = PacketSize
	}
	s.SetRate(rate)
}

// aimdReceiver tracks sequence numbers and reports loss back to the
// sender.
type aimdReceiver struct {
	feedbackLoop

	maxSeq   uint32
	lastMax  uint32
	received uint32
}

// newAIMDReceiver builds the receiver side on host; whoever owns the
// host's aimdDataPort handler feeds it each datagram through onData.
func newAIMDReceiver(sim *netsim.Sim, host *endhost.Host) *aimdReceiver {
	r := &aimdReceiver{}
	r.start(sim, host, aimdFeedbackPort, r.report)
	return r
}

func (r *aimdReceiver) onData(pkt *core.Packet) {
	seq, ok := r.heard(pkt)
	if !ok {
		return
	}
	if seq > r.maxSeq {
		r.maxSeq = seq
	}
	r.received++
}

// report closes the window: the highest sequence seen, and how many
// datagrams below it never arrived.
func (r *aimdReceiver) report() []byte {
	expected := r.maxSeq - r.lastMax
	var lost uint32
	if expected > r.received {
		lost = expected - r.received
	}
	r.lastMax = r.maxSeq
	r.received = 0
	words := binary.BigEndian.AppendUint32(nil, r.maxSeq)
	return binary.BigEndian.AppendUint32(words, lost)
}
