package rcp

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
)

// UDP ports used by the congestion-control experiment.
const (
	// BaselineDataPort marks native-RCP data packets; switches stamp
	// the fair-share rate into their congestion header.
	BaselineDataPort = 8000
	// StarDataPort marks RCP* data packets (no in-network stamping).
	StarDataPort = 8001
	// FeedbackPort carries the receiver's rate feedback back to the
	// sender in the native-RCP baseline.
	FeedbackPort = 8002

	// aimdDataPort and aimdFeedbackPort carry the AIMD comparator's
	// sequence-numbered data and its loss feedback.
	aimdDataPort     = 8100
	aimdFeedbackPort = 8101
)

// rateHeaderLen is the congestion header carried at the front of
// baseline data payloads: the fair-share rate in bytes/sec.
const rateHeaderLen = 4

// PacketSize is the data packet payload size used by the experiment
// (1000-byte frames on the wire once headers are added).
const PacketSize = 958

// PacedFlow is a long-lived, rate-paced UDP flow with infinite backlog:
// the flow model of the §2.2 experiments, and the one pacing loop all
// three schemes send through.
type PacedFlow struct {
	sim    *netsim.Sim
	host   *endhost.Host
	dstMAC core.MAC
	dstIP  uint32
	port   uint16
	size   int // payload bytes per packet

	rate    float64 // bytes/sec
	running bool
	next    *netsim.Timer // the next departure; armed while running at a rate

	// header, when non-nil, supplies the first payload word of every
	// packet: the native-RCP congestion header, or AIMD's sequence
	// number.
	header func() uint32

	// Sent counts transmitted packets; SentBytes counts payload bytes.
	Sent      uint64
	SentBytes uint64
}

// newPacedFlow builds a flow from host toward the destination.  header
// may be nil (RCP* data packets carry no header word).
func newPacedFlow(sim *netsim.Sim, host *endhost.Host, dstMAC core.MAC, dstIP uint32, port uint16, header func() uint32) *PacedFlow {
	f := &PacedFlow{
		sim: sim, host: host, dstMAC: dstMAC, dstIP: dstIP,
		port: port, size: PacketSize, header: header,
	}
	f.next = sim.NewTimer(f.pump)
	return f
}

// Rate returns the current pacing rate in bytes/sec.
func (f *PacedFlow) Rate() float64 { return f.rate }

// SetRate changes the pacing rate; it takes effect from the next
// scheduled packet.  A flow that was started before it had a rate has
// no packet scheduled, and sends its first one now.
func (f *PacedFlow) SetRate(r float64) {
	if r < 1 {
		r = 1
	}
	f.rate = r
	if f.running && !f.next.Armed() {
		f.next.Reset(f.sim.Now())
	}
}

// Start begins transmission at the current rate.
func (f *PacedFlow) Start() {
	if f.running {
		return
	}
	f.running = true
	f.next.Reset(f.sim.Now())
}

// Stop halts transmission: the scheduled departure is called off.
func (f *PacedFlow) Stop() {
	f.running = false
	f.next.Stop()
}

// Running reports whether the flow is transmitting.
func (f *PacedFlow) Running() bool { return f.running }

// pump sends one packet and schedules the next.  It runs only off the
// timer, which Stop disarms, so the flow is running whenever it does.
func (f *PacedFlow) pump() {
	if f.rate <= 0 {
		return // started without a rate: SetRate schedules the first packet
	}
	// The packet is sent and forgotten, so it is drawn from the pool:
	// whoever holds it last — a drop point, or the receiver's sink —
	// returns the block, header word's buffer included.
	pkt := f.host.NewPacketPooled(f.dstMAC, f.dstIP, f.port, f.port, f.size)
	if f.header != nil {
		pkt.GrowPayload(rateHeaderLen)
		pkt.Payload = binary.BigEndian.AppendUint32(pkt.Payload, f.header())
		pkt.PadLen -= rateHeaderLen
	}
	f.host.Send(pkt)
	f.Sent++
	f.SentBytes += uint64(f.size)
	// Pace: the next packet departs one serialization interval later
	// at the current rate.
	gap := netsim.Time(float64(f.size+42) / f.rate * float64(netsim.Second))
	if gap < netsim.Microsecond {
		gap = netsim.Microsecond
	}
	f.next.Reset(f.sim.Now() + gap)
}

// feedbackLoop is the receiver half that native RCP and AIMD share: it
// learns the sender's address from data packets and, every
// ControlPeriod once it has one, sends the words the scheme's report
// supplies back on the scheme's feedback port.
type feedbackLoop struct {
	srcMAC core.MAC
	srcIP  uint32
	have   bool
}

// start arms the loop's timer on host.
func (l *feedbackLoop) start(sim *netsim.Sim, host *endhost.Host, port uint16, report func() []byte) {
	sim.Every(sim.Now()+ControlPeriod, ControlPeriod, func() {
		if !l.have {
			return
		}
		fb := host.NewPacket(l.srcMAC, l.srcIP, port, port, 0)
		fb.Payload = report()
		host.Send(fb)
	})
}

// heard learns the sender of a data packet and returns the header word
// the packet opens with; ok is false, and nothing is learned, for a
// packet too short to carry one.
func (l *feedbackLoop) heard(pkt *core.Packet) (word uint32, ok bool) {
	if len(pkt.Payload) < rateHeaderLen || pkt.IP == nil {
		return 0, false
	}
	l.srcMAC, l.srcIP = pkt.Eth.Src, pkt.IP.Src
	l.have = true
	return binary.BigEndian.Uint32(pkt.Payload), true
}
